// Package identity is a type-check stub for the directverify fixture:
// the analyzer matches the import path, interface name and method name
// of the signature primitive, never its behavior, so declaring just the
// matched interface is enough.
package identity

// PublicKey declares the matched method; implementations are irrelevant.
type PublicKey interface {
	Verify(msg, sig []byte) bool
}
