package wire

import (
	"fmt"

	"sbr6/internal/ipv6"
)

// Type discriminates protocol messages on the wire.
type Type uint8

// Message types. The first block is the paper's Table 1; the second block
// carries data traffic and the DNS services of Sections 3.1–3.2.
const (
	TAREQ Type = iota + 1 // address request (extended NS)
	TAREP                 // address reply (extended NA)
	TDREP                 // DNS server reply: duplicate domain name
	TRREQ                 // route request
	TRREP                 // route reply
	TCREP                 // cached route reply
	TRERR                 // route error

	TData // application payload, source-routed
	TAck  // end-to-end acknowledgement feeding the credit mechanism

	TDNSQuery     // secure name lookup
	TDNSAnswer    // signed lookup answer
	TUpdateReq    // request a challenge for an IP-address change
	TUpdateChal   // DNS-signed challenge
	TUpdate       // signed (old IP, new IP) binding update
	TUpdateResult // DNS-signed outcome

	TAuditAdv // post-formation signed address re-advertisement
	TAuditObj // signed objection from a conflicting binding holder
)

// String names the message type as the paper does.
func (t Type) String() string {
	switch t {
	case TAREQ:
		return "AREQ"
	case TAREP:
		return "AREP"
	case TDREP:
		return "DREP"
	case TRREQ:
		return "RREQ"
	case TRREP:
		return "RREP"
	case TCREP:
		return "CREP"
	case TRERR:
		return "RERR"
	case TData:
		return "DATA"
	case TAck:
		return "ACK"
	case TDNSQuery:
		return "DNSQ"
	case TDNSAnswer:
		return "DNSA"
	case TUpdateReq:
		return "UPDQ"
	case TUpdateChal:
		return "CHAL"
	case TUpdate:
		return "UPD"
	case TUpdateResult:
		return "UPDR"
	case TAuditAdv:
		return "AADV"
	case TAuditObj:
		return "AOBJ"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Message is any protocol message body.
type Message interface {
	Type() Type
	encodeBody(w *writer)
}

// HopAttestation is one secure-route-record entry: the paper's
// ([I_IP, seq]_{I_SK}, I_PK, I_rn) triple prefixed by the hop's address.
// In baseline (insecure DSR) mode Sig and PK are empty.
type HopAttestation struct {
	IP  ipv6.Addr
	Sig []byte
	PK  []byte
	Rn  uint64
}

// AREQ is the flooded address request of Section 3.1: extended duplicate
// address detection with optional 6DNAR domain-name registration.
type AREQ struct {
	SIP ipv6.Addr   // tentative address under test
	Seq uint32      // initiator-unique sequence number
	DN  string      // requested domain name; empty when not registering
	Ch  uint64      // random challenge echoed (signed) by any objector
	RR  []ipv6.Addr // route record accumulated hop by hop
}

// Type implements Message.
func (*AREQ) Type() Type { return TAREQ }

func (m *AREQ) encodeBody(w *writer) {
	w.addr(m.SIP)
	w.u32(m.Seq)
	w.str(m.DN)
	w.u64(m.Ch)
	w.route(m.RR)
}

// AREP is the unicast objection to a duplicate address: the current owner R
// proves ownership by signing (SIP, ch) and exhibiting (R_PK, R_rn).
type AREP struct {
	SIP ipv6.Addr   // the contested address
	RR  []ipv6.Addr // reverse route back to the requester
	Sig []byte      // [SIP, ch]_{R_SK}
	PK  []byte      // R_PK
	Rn  uint64      // R_rn
}

// Type implements Message.
func (*AREP) Type() Type { return TAREP }

func (m *AREP) encodeBody(w *writer) {
	w.addr(m.SIP)
	w.route(m.RR)
	w.blob(m.Sig)
	w.blob(m.PK)
	w.u64(m.Rn)
}

// DREP is the DNS server's objection to a duplicate domain name, signed
// with the DNS private key over (DN, ch).
type DREP struct {
	SIP ipv6.Addr   // the requester's tentative address
	RR  []ipv6.Addr // reverse route back to the requester
	DN  string      // the contested name (lets the requester match state)
	Sig []byte      // [DN, ch]_{N_SK}
}

// Type implements Message.
func (*DREP) Type() Type { return TDREP }

func (m *DREP) encodeBody(w *writer) {
	w.addr(m.SIP)
	w.route(m.RR)
	w.str(m.DN)
	w.blob(m.Sig)
}

// RREQ is the flooded route request of Section 3.3. In secure mode the
// source signs (SIP, seq) and each relay appends a HopAttestation to SRR;
// in baseline mode the signature fields are empty and SRR carries bare
// addresses.
type RREQ struct {
	SIP    ipv6.Addr
	DIP    ipv6.Addr
	Seq    uint32
	SRR    []HopAttestation // secure route record (intermediate hops)
	SrcSig []byte           // [SIP, seq]_{S_SK}
	SPK    []byte
	Srn    uint64
}

// Type implements Message.
func (*RREQ) Type() Type { return TRREQ }

func (m *RREQ) encodeBody(w *writer) {
	w.addr(m.SIP)
	w.addr(m.DIP)
	w.u32(m.Seq)
	if len(m.SRR) > maxRouteLen {
		panic("wire: SRR too long")
	}
	w.u8(uint8(len(m.SRR)))
	for i := range m.SRR {
		w.hop(&m.SRR[i])
	}
	w.blob(m.SrcSig)
	w.blob(m.SPK)
	w.u64(m.Srn)
}

// Route returns the bare addresses of the SRR.
func (m *RREQ) Route() []ipv6.Addr {
	rr := make([]ipv6.Addr, len(m.SRR))
	for i, h := range m.SRR {
		rr[i] = h.IP
	}
	return rr
}

// RREP is the destination's signed route reply, returned to the source
// along the reverse of the discovered route.
type RREP struct {
	SIP ipv6.Addr
	DIP ipv6.Addr
	Seq uint32      // echo of the RREQ sequence number
	RR  []ipv6.Addr // discovered route (intermediate hops, source order)
	Sig []byte      // [SIP, seq, RR]_{D_SK}
	DPK []byte
	Drn uint64
}

// Type implements Message.
func (*RREP) Type() Type { return TRREP }

func (m *RREP) encodeBody(w *writer) {
	w.addr(m.SIP)
	w.addr(m.DIP)
	w.u32(m.Seq)
	w.route(m.RR)
	w.blob(m.Sig)
	w.blob(m.DPK)
	w.u64(m.Drn)
}

// CREP is the cached route reply of Section 3.3: cache holder S answers
// querier S2 with the fresh half S2->S that S signs, plus the cached half
// S->D still covered by D's original RREP signature.
type CREP struct {
	S2IP ipv6.Addr // querier (the paper's S')
	SIP  ipv6.Addr // cache holder
	DIP  ipv6.Addr

	Seq2  uint32      // the querier's sequence number (seq')
	RRToS []ipv6.Addr // intermediates S2 -> S
	Sig1  []byte      // [S2IP, seq2, RRToS]_{S_SK}
	SPK   []byte
	Srn   uint64

	Seq   uint32      // the original sequence number S used to find D
	RRToD []ipv6.Addr // intermediates S -> D
	Sig2  []byte      // [SIP, seq, RRToD]_{D_SK}
	DPK   []byte
	Drn   uint64
}

// Type implements Message.
func (*CREP) Type() Type { return TCREP }

func (m *CREP) encodeBody(w *writer) {
	w.addr(m.S2IP)
	w.addr(m.SIP)
	w.addr(m.DIP)
	w.u32(m.Seq2)
	w.route(m.RRToS)
	w.blob(m.Sig1)
	w.blob(m.SPK)
	w.u64(m.Srn)
	w.u32(m.Seq)
	w.route(m.RRToD)
	w.blob(m.Sig2)
	w.blob(m.DPK)
	w.u64(m.Drn)
}

// RERR reports a broken link from the detecting relay I to its next hop,
// signed by I so the source can pin responsibility (Section 3.4).
type RERR struct {
	IIP ipv6.Addr // reporting node
	NIP ipv6.Addr // unreachable next hop
	Sig []byte    // [IIP, NIP]_{I_SK}
	IPK []byte
	Irn uint64
}

// Type implements Message.
func (*RERR) Type() Type { return TRERR }

func (m *RERR) encodeBody(w *writer) {
	w.addr(m.IIP)
	w.addr(m.NIP)
	w.blob(m.Sig)
	w.blob(m.IPK)
	w.u64(m.Irn)
}

// Data is an application payload carried over a discovered source route.
// Salvage counts how many times relays re-routed the packet around broken
// links (DSR packet salvaging); it bounds salvage loops.
type Data struct {
	FlowID  uint32
	Seq     uint32
	Salvage uint8
	Payload []byte
}

// Type implements Message.
func (*Data) Type() Type { return TData }

func (m *Data) encodeBody(w *writer) {
	w.u32(m.FlowID)
	w.u32(m.Seq)
	w.u8(m.Salvage)
	w.blob(m.Payload)
}

// Ack is the destination's end-to-end acknowledgement; each correctly
// acknowledged packet earns every relay on the route one credit.
type Ack struct {
	FlowID uint32
	Seq    uint32
}

// Type implements Message.
func (*Ack) Type() Type { return TAck }

func (m *Ack) encodeBody(w *writer) {
	w.u32(m.FlowID)
	w.u32(m.Seq)
}

// DNSQuery asks the DNS server for a name's address; the challenge binds
// the signed answer to this query (Section 3.2).
type DNSQuery struct {
	Name string
	Ch   uint64
}

// Type implements Message.
func (*DNSQuery) Type() Type { return TDNSQuery }

func (m *DNSQuery) encodeBody(w *writer) {
	w.str(m.Name)
	w.u64(m.Ch)
}

// DNSAnswer is the server's signed response.
type DNSAnswer struct {
	Name  string
	IP    ipv6.Addr
	Found bool
	Sig   []byte // [name, IP, found, ch]_{N_SK}
}

// Type implements Message.
func (*DNSAnswer) Type() Type { return TDNSAnswer }

func (m *DNSAnswer) encodeBody(w *writer) {
	w.str(m.Name)
	w.addr(m.IP)
	w.bool(m.Found)
	w.blob(m.Sig)
}

// UpdateReq asks the DNS server for a challenge before changing the IP
// address bound to Name (Section 3.2).
type UpdateReq struct {
	Name string
}

// Type implements Message.
func (*UpdateReq) Type() Type { return TUpdateReq }

func (m *UpdateReq) encodeBody(w *writer) { w.str(m.Name) }

// UpdateChal is the DNS server's signed challenge.
type UpdateChal struct {
	Name string
	Ch   uint64
	Sig  []byte // [name, ch]_{N_SK}
}

// Type implements Message.
func (*UpdateChal) Type() Type { return TUpdateChal }

func (m *UpdateChal) encodeBody(w *writer) {
	w.str(m.Name)
	w.u64(m.Ch)
	w.blob(m.Sig)
}

// Update carries the signed address change: the holder proves it owns both
// the old and new CGA by exhibiting the modifiers and signing with the key
// that generated both.
type Update struct {
	Name  string
	OldIP ipv6.Addr
	NewIP ipv6.Addr
	Rn    uint64 // modifier of the old address
	NewRn uint64 // modifier of the new address
	PK    []byte
	Sig   []byte // [oldIP, newIP, ch]_{X_SK}
}

// Type implements Message.
func (*Update) Type() Type { return TUpdate }

func (m *Update) encodeBody(w *writer) {
	w.str(m.Name)
	w.addr(m.OldIP)
	w.addr(m.NewIP)
	w.u64(m.Rn)
	w.u64(m.NewRn)
	w.blob(m.PK)
	w.blob(m.Sig)
}

// UpdateResult is the DNS server's signed verdict on an Update.
type UpdateResult struct {
	Name string
	OK   bool
	Ch   uint64
	Sig  []byte // [name, ok, ch]_{N_SK}
}

// Type implements Message.
func (*UpdateResult) Type() Type { return TUpdateResult }

func (m *UpdateResult) encodeBody(w *writer) {
	w.str(m.Name)
	w.bool(m.OK)
	w.u64(m.Ch)
	w.blob(m.Sig)
}

// AuditAdv is the post-formation audit sweep's flooded re-advertisement: a
// configured node periodically re-asserts its CGA address binding so a
// conflicting claimant that was never inside its DAD flood (a concurrent
// cross-cell claim, a merged partition) can finally hear about it and
// object. The route record accumulates hop by hop exactly like an AREQ's,
// giving objectors a reverse path before any route discovery has run.
type AuditAdv struct {
	SIP ipv6.Addr   // the advertised (currently owned) address
	Seq uint32      // advertiser's sweep round, strictly increasing
	Ch  uint64      // challenge any objection must echo
	RR  []ipv6.Addr // route record accumulated hop by hop
	Sig []byte      // [SIP, seq, ch]_{O_SK}
	PK  []byte      // O_PK
	Rn  uint64      // O_rn
}

// Type implements Message.
func (*AuditAdv) Type() Type { return TAuditAdv }

func (m *AuditAdv) encodeBody(w *writer) {
	w.addr(m.SIP)
	w.u32(m.Seq)
	w.u64(m.Ch)
	w.route(m.RR)
	w.blob(m.Sig)
	w.blob(m.PK)
	w.u64(m.Rn)
}

// AuditObj is the objection a node raises when an audit advertisement
// claims an address the node itself holds: proof of its own CGA binding
// plus the signed challenge echo, mirroring the AREP shape but under its
// own domain-separation tag so neither can be replayed as the other.
type AuditObj struct {
	SIP ipv6.Addr   // the contested address
	RR  []ipv6.Addr // reverse route back to the advertiser
	Ch  uint64      // echo of the advertisement's challenge
	Sig []byte      // [SIP, ch]_{R_SK}
	PK  []byte      // R_PK
	Rn  uint64      // R_rn
}

// Type implements Message.
func (*AuditObj) Type() Type { return TAuditObj }

func (m *AuditObj) encodeBody(w *writer) {
	w.addr(m.SIP)
	w.route(m.RR)
	w.u64(m.Ch)
	w.blob(m.Sig)
	w.blob(m.PK)
	w.u64(m.Rn)
}

// errUnknownType rejects a frame whose type byte names no message.
var errUnknownType = fmt.Errorf("%w: unknown message type", ErrBadField)

// decodeBody walks the body of a type-t message through r: the single
// definition of every message layout on the read side, shared by Decode
// and the allocation-free Scan the way encodeInto serves both encoders.
// It returns the decoded message, or nil when r is scanning or the walk
// failed (r.err says which); the flooded requests also note their flood
// identity in r.
func decodeBody(t Type, r *reader) Message {
	switch t {
	case TAREQ:
		m := AREQ{SIP: r.addr(), Seq: r.u32(), DN: r.str(), Ch: r.u64(), RR: r.route()}
		r.flood(m.SIP, ipv6.Addr{}, m.Seq, m.Ch)
		return keep(r, m)
	case TAREP:
		return keep(r, AREP{SIP: r.addr(), RR: r.route(), Sig: r.blob(), PK: r.blob(), Rn: r.u64()})
	case TDREP:
		return keep(r, DREP{SIP: r.addr(), RR: r.route(), DN: r.str(), Sig: r.blob()})
	case TRREQ:
		m := RREQ{SIP: r.addr(), DIP: r.addr(), Seq: r.u32(), SRR: r.hops(), SrcSig: r.blob(), SPK: r.blob(), Srn: r.u64()}
		r.flood(m.SIP, m.DIP, m.Seq, 0)
		return keep(r, m)
	case TRREP:
		return keep(r, RREP{SIP: r.addr(), DIP: r.addr(), Seq: r.u32(), RR: r.route(), Sig: r.blob(), DPK: r.blob(), Drn: r.u64()})
	case TCREP:
		return keep(r, CREP{
			S2IP: r.addr(), SIP: r.addr(), DIP: r.addr(),
			Seq2: r.u32(), RRToS: r.route(), Sig1: r.blob(), SPK: r.blob(), Srn: r.u64(),
			Seq: r.u32(), RRToD: r.route(), Sig2: r.blob(), DPK: r.blob(), Drn: r.u64(),
		})
	case TRERR:
		return keep(r, RERR{IIP: r.addr(), NIP: r.addr(), Sig: r.blob(), IPK: r.blob(), Irn: r.u64()})
	case TData:
		return keep(r, Data{FlowID: r.u32(), Seq: r.u32(), Salvage: r.u8(), Payload: r.blob()})
	case TAck:
		return keep(r, Ack{FlowID: r.u32(), Seq: r.u32()})
	case TDNSQuery:
		return keep(r, DNSQuery{Name: r.str(), Ch: r.u64()})
	case TDNSAnswer:
		return keep(r, DNSAnswer{Name: r.str(), IP: r.addr(), Found: r.bool(), Sig: r.blob()})
	case TUpdateReq:
		return keep(r, UpdateReq{Name: r.str()})
	case TUpdateChal:
		return keep(r, UpdateChal{Name: r.str(), Ch: r.u64(), Sig: r.blob()})
	case TUpdate:
		return keep(r, Update{Name: r.str(), OldIP: r.addr(), NewIP: r.addr(), Rn: r.u64(), NewRn: r.u64(), PK: r.blob(), Sig: r.blob()})
	case TUpdateResult:
		return keep(r, UpdateResult{Name: r.str(), OK: r.bool(), Ch: r.u64(), Sig: r.blob()})
	case TAuditAdv:
		m := AuditAdv{SIP: r.addr(), Seq: r.u32(), Ch: r.u64(), RR: r.route(), Sig: r.blob(), PK: r.blob(), Rn: r.u64()}
		r.flood(m.SIP, ipv6.Addr{}, m.Seq, m.Ch)
		return keep(r, m)
	case TAuditObj:
		return keep(r, AuditObj{SIP: r.addr(), RR: r.route(), Ch: r.u64(), Sig: r.blob(), PK: r.blob(), Rn: r.u64()})
	default:
		r.fail(errUnknownType)
		return nil
	}
}

// keep finishes a body walk. Decode boxes the walked value into a fresh
// message; a scan, or a failed walk, keeps nothing. The value arrives by
// copy, so a scan's walk never reaches the heap.
func keep[M any, P interface {
	*M
	Message
}](r *reader, m M) Message {
	if r.scan || r.err != nil {
		return nil
	}
	p := P(new(M))
	*p = m
	return p
}
