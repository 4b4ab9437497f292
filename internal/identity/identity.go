// Package identity manages the public/private key pairs and CGA-bound
// addresses that every MANET host carries.
//
// The paper writes [msg]_{X_SK} for "msg encrypted with X's private key",
// verified by decrypting with X_PK and comparing — which is precisely a
// digital signature. Two suites are provided:
//
//   - Ed25519 (default): fast, small keys and signatures, deterministic key
//     generation from a seeded reader, so whole simulations are reproducible.
//   - RSA (1024/2048 with SHA-256 PKCS#1 v1.5): the kind of keys the 2003
//     paper had in mind; used by the suite-ablation experiment E2. Its
//     primes are searched on the seeded reader here, because
//     crypto/rsa.GenerateKey may read an extra byte from its reader, so a
//     seeded reader alone does not fix its key.
package identity

import (
	"crypto"
	"crypto/ed25519"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"math/rand"

	"sbr6/internal/cga"
	"sbr6/internal/ipv6"
)

// Suite selects the signature algorithm.
type Suite int

// Available suites.
const (
	SuiteEd25519 Suite = iota
	SuiteRSA1024
	SuiteRSA2048
)

// String names the suite for reports.
func (s Suite) String() string {
	switch s {
	case SuiteEd25519:
		return "ed25519"
	case SuiteRSA1024:
		return "rsa1024"
	case SuiteRSA2048:
		return "rsa2048"
	default:
		return fmt.Sprintf("suite(%d)", int(s))
	}
}

// PublicKey verifies signatures and serializes for transmission in AREP,
// RREQ, RREP, CREP and RERR messages.
type PublicKey interface {
	// Verify reports whether sig is a valid signature of msg.
	Verify(msg, sig []byte) bool
	// Bytes returns the wire encoding carried in protocol messages; it is
	// also the input to the CGA hash H(PK, rn).
	Bytes() []byte
	// Suite identifies the algorithm for ParsePublicKey.
	Suite() Suite
}

// PrivateKey signs protocol messages.
type PrivateKey interface {
	// Sign returns a signature of msg.
	Sign(msg []byte) []byte
	// Public returns the matching public key.
	Public() PublicKey
}

// --- Ed25519 ---

type ed25519Public ed25519.PublicKey

func (p ed25519Public) Verify(msg, sig []byte) bool {
	if len(p) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(p), msg, sig)
}
func (p ed25519Public) Bytes() []byte { return []byte(p) }
func (p ed25519Public) Suite() Suite  { return SuiteEd25519 }

type ed25519Private ed25519.PrivateKey

func (p ed25519Private) Sign(msg []byte) []byte {
	return ed25519.Sign(ed25519.PrivateKey(p), msg)
}
func (p ed25519Private) Public() PublicKey {
	return ed25519Public(ed25519.PrivateKey(p).Public().(ed25519.PublicKey))
}

// --- RSA ---

type rsaPublic struct {
	key *rsa.PublicKey
}

func (p rsaPublic) Verify(msg, sig []byte) bool {
	digest := sha256.Sum256(msg)
	return rsa.VerifyPKCS1v15(p.key, crypto.SHA256, digest[:], sig) == nil
}
func (p rsaPublic) Bytes() []byte { return x509.MarshalPKCS1PublicKey(p.key) }
func (p rsaPublic) Suite() Suite {
	if p.key.Size() <= 128 {
		return SuiteRSA1024
	}
	return SuiteRSA2048
}

type rsaPrivate struct {
	key *rsa.PrivateKey
}

func (p rsaPrivate) Sign(msg []byte) []byte {
	digest := sha256.Sum256(msg)
	sig, err := rsa.SignPKCS1v15(nil, p.key, crypto.SHA256, digest[:])
	if err != nil {
		// Signing with a valid key and digest cannot fail; treat as corruption.
		panic(fmt.Sprintf("identity: RSA sign: %v", err))
	}
	return sig
}
func (p rsaPrivate) Public() PublicKey { return rsaPublic{&p.key.PublicKey} }

// GenerateKey creates a key pair for the suite using entropy from rng.
func GenerateKey(suite Suite, rng io.Reader) (PrivateKey, error) {
	switch suite {
	case SuiteEd25519:
		_, priv, err := ed25519.GenerateKey(rng)
		if err != nil {
			return nil, fmt.Errorf("identity: ed25519 keygen: %w", err)
		}
		return ed25519Private(priv), nil
	case SuiteRSA1024, SuiteRSA2048:
		bits := 1024
		if suite == SuiteRSA2048 {
			bits = 2048
		}
		key, err := generateRSA(rng, bits)
		if err != nil {
			return nil, fmt.Errorf("identity: rsa keygen: %w", err)
		}
		return rsaPrivate{key}, nil
	default:
		return nil, fmt.Errorf("identity: unknown suite %d", suite)
	}
}

// rsaExponent is the public exponent of every RSA key.
const rsaExponent = 65537

// generateRSA builds a bits-sized RSA key whose primes are the first two
// that searchPrime finds on rng, so one reader state gives one key.
func generateRSA(rng io.Reader, bits int) (*rsa.PrivateKey, error) {
	p, err := searchPrime(rng, bits/2)
	if err != nil {
		return nil, err
	}
	q, err := searchPrime(rng, bits/2)
	if err != nil {
		return nil, err
	}
	one := big.NewInt(1)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	key := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: new(big.Int).Mul(p, q), E: rsaExponent},
		D:         new(big.Int).ModInverse(big.NewInt(rsaExponent), phi),
		Primes:    []*big.Int{p, q},
	}
	if err := key.Validate(); err != nil {
		return nil, err
	}
	key.Precompute()
	return key, nil
}

// searchPrime reads odd candidates of bits bits (a multiple of 8) with the
// top two bits set from rng until one is a prime p with p−1 coprime to the
// exponent. The top two bits make the product of two such primes exactly
// twice as long.
func searchPrime(rng io.Reader, bits int) (*big.Int, error) {
	buf := make([]byte, bits/8)
	e, one := big.NewInt(rsaExponent), big.NewInt(1)
	for {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, err
		}
		buf[0] |= 0xc0
		buf[len(buf)-1] |= 1
		p := new(big.Int).SetBytes(buf)
		// The exponent is prime, so it shares a factor with p−1 exactly
		// when p ≡ 1 modulo it.
		if p.ProbablyPrime(20) && new(big.Int).Mod(p, e).Cmp(one) != 0 {
			return p, nil
		}
	}
}

// ParsePublicKey decodes a public key previously encoded with Bytes().
func ParsePublicKey(suite Suite, b []byte) (PublicKey, error) {
	switch suite {
	case SuiteEd25519:
		if len(b) != ed25519.PublicKeySize {
			return nil, fmt.Errorf("identity: bad ed25519 key length %d", len(b))
		}
		return ed25519Public(append([]byte(nil), b...)), nil
	case SuiteRSA1024, SuiteRSA2048:
		key, err := x509.ParsePKCS1PublicKey(b)
		if err != nil {
			return nil, fmt.Errorf("identity: parse RSA key: %w", err)
		}
		return rsaPublic{key}, nil
	default:
		return nil, fmt.Errorf("identity: unknown suite %d", suite)
	}
}

// Identity is a host's full cryptographic identity: key pair, current CGA
// modifier and the resulting site-local address. The zero Name means the
// host did not request a domain name.
type Identity struct {
	Priv PrivateKey
	Pub  PublicKey
	Rn   uint64
	Addr ipv6.Addr
	Name string
}

// New generates a fresh identity: a key pair for the suite and an initial
// CGA address from a random modifier.
func New(suite Suite, rng *rand.Rand, name string) (*Identity, error) {
	priv, err := GenerateKey(suite, NewReader(rng))
	if err != nil {
		return nil, err
	}
	id := &Identity{Priv: priv, Pub: priv.Public(), Name: name}
	id.Regenerate(rng)
	return id, nil
}

// Regenerate draws a fresh modifier and recomputes the address, keeping the
// key pair — the paper's recovery path when DAD detects a duplicate, and
// also what an identity-churning adversary does.
func (id *Identity) Regenerate(rng *rand.Rand) {
	id.Rn = rng.Uint64()
	id.Addr = cga.Address(id.Pub.Bytes(), id.Rn)
}

// Sign signs msg with the identity's private key.
func (id *Identity) Sign(msg []byte) []byte { return id.Priv.Sign(msg) }

// VerifyOwnBinding reports whether the identity's address matches its key
// and modifier — true unless the identity was tampered with.
func (id *Identity) VerifyOwnBinding() bool {
	return cga.Verify(id.Addr, id.Pub.Bytes(), id.Rn)
}

// NewReader adapts a math/rand source to io.Reader for key generation.
// Using the simulation's seeded source keeps Ed25519 runs fully
// reproducible.
func NewReader(rng *rand.Rand) io.Reader { return &randReader{rng} }

type randReader struct{ rng *rand.Rand }

func (r *randReader) Read(p []byte) (int, error) {
	var buf [8]byte
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(buf[:], r.rng.Uint64())
		copy(p[i:], buf[:])
	}
	return len(p), nil
}
