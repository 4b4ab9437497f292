// Package directverify exercises the directverify analyzer: a bare
// primitive call is flagged, an annotated compute site is allowed, and a
// VerifySig method on another type is ignored.
package directverify

import "sbr6/internal/identity"

// stub is a PublicKey the fixture can call through.
type stub struct{}

func (stub) Verify(msg, sig []byte) bool {
	_ = msg
	_ = sig
	return false
}

var _ identity.PublicKey = stub{}

type memo struct{}

func (memo) VerifySig(pk identity.PublicKey, msg, sig []byte) bool {
	_ = pk
	_ = msg
	_ = sig
	return false
}

func bare(pk identity.PublicKey, msg, sig []byte) bool {
	return pk.Verify(msg, sig) // want `identity\.PublicKey\.Verify bypasses the signature memo`
}

func allowedComputeSite(pk identity.PublicKey, msg, sig []byte) bool {
	//sbr6:allow directverify this fixture models the memo's own compute site
	return pk.Verify(msg, sig)
}

func viaMemo(msg, sig []byte) bool {
	var m memo
	return m.VerifySig(stub{}, msg, sig)
}
