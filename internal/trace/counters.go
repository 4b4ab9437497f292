package trace

import "sort"

// Counter is a declared counter: an index into every Metrics sink's
// array. The constants below are the whole schema; README's "Counters"
// table lists the same names, and a test holds the two together.
type Counter uint16

// The declared counters, grouped by the layer that bumps them. The order
// is the arrays' order and carries no meaning: CounterNames sorts by name.
const (
	// Receive path (core).
	RxFrames Counter = iota
	RxMalformed
	RxUnhandled
	RxAREQ
	RxAREP
	RxDREP
	RxRREQ
	RxRREP
	RxCREP
	RxRERR
	RxAADV
	RxAOBJ

	// Transmit path (core): one tx.<TYPE> per wire message type, in
	// wire.Type order, then bytes and drops.
	TxAREQ
	TxAREP
	TxDREP
	TxRREQ
	TxRREP
	TxCREP
	TxRERR
	TxDATA
	TxACK
	TxDNSQ
	TxDNSA
	TxUPDQ
	TxCHAL
	TxUPD
	TxUPDR
	TxAADV
	TxAOBJ
	TxBytesData
	TxBytesControl
	TxBytesTotal
	TxBytesRaw
	TxRaw
	TxRouteExhausted
	TxNoNeighbor

	// Signatures made and checked (core).
	CryptoSign
	CryptoVerify

	// Secure DAD (core).
	DADRounds
	DADObjectionsSent
	DADAREPAccepted
	DADAREPRejected
	DADDREPAccepted
	DADDREPRejected
	AddrRegenerated

	// Route discovery (core).
	DiscoveryAttempts
	DiscoveryFailed
	FwdRREQ
	RREQRejected
	RREPSent
	RREPUnsolicited
	RREPRejected
	RouteInstalled
	CREPSent
	CREPUnsolicited
	CREPRejected

	// Data forwarding, acknowledgements, probes and route errors (core).
	DataSent
	DataDelivered
	DataNoRoute
	DataFirsthopFail
	DataAckTimeout
	AckSent
	AckUnsolicited
	AckRx
	ProbeStarted
	ProbeInconclusive
	ProbeConcluded
	CreditPunished
	FwdDroppedBehavior
	FwdTTLExpired
	FwdRelayed
	FwdLinkfail
	FwdSalvaged
	RERRSent
	RERRRejected
	RERRAccepted
	RouteInvalidated
	RERRSpammerFlagged

	// Audit sweep (core).
	AuditAdvSent
	AuditReplaysIgnored
	AuditAdvRejected
	AuditConflicts
	AuditObjectionsSent
	AuditObjRejected
	AuditRekeys

	// DNS client side (core).
	DNSResolveStarted
	DNSResolveTimeout
	DNSAnswerAccepted
	DNSAnswerRejected
	DNSAnswerUnsolicited
	DNSRebindStarted
	DNSRebindTimeout
	DNSChalRejected
	DNSResultRejected
	DNSRebindOK
	DNSRebindFailed
	DNSRebindAborted
	DNSWarnsAccepted

	// DNS server (dnssrv).
	DNSPreloaded
	DNSAREQ
	DNSRegistered
	DNSDREP
	DNSWarnAccepted
	DNSWarnRejected
	DNSQuery
	DNSUpdateChallenge
	DNSUpdateOK
	DNSUpdateRejected

	numCounters
)

// counterNames gives each declared counter its name.
var counterNames = [numCounters]string{
	RxFrames:             "rx.frames",
	RxMalformed:          "rx.malformed",
	RxUnhandled:          "rx.unhandled",
	RxAREQ:               "rx.AREQ",
	RxAREP:               "rx.AREP",
	RxDREP:               "rx.DREP",
	RxRREQ:               "rx.RREQ",
	RxRREP:               "rx.RREP",
	RxCREP:               "rx.CREP",
	RxRERR:               "rx.RERR",
	RxAADV:               "rx.AADV",
	RxAOBJ:               "rx.AOBJ",
	TxAREQ:               "tx.AREQ",
	TxAREP:               "tx.AREP",
	TxDREP:               "tx.DREP",
	TxRREQ:               "tx.RREQ",
	TxRREP:               "tx.RREP",
	TxCREP:               "tx.CREP",
	TxRERR:               "tx.RERR",
	TxDATA:               "tx.DATA",
	TxACK:                "tx.ACK",
	TxDNSQ:               "tx.DNSQ",
	TxDNSA:               "tx.DNSA",
	TxUPDQ:               "tx.UPDQ",
	TxCHAL:               "tx.CHAL",
	TxUPD:                "tx.UPD",
	TxUPDR:               "tx.UPDR",
	TxAADV:               "tx.AADV",
	TxAOBJ:               "tx.AOBJ",
	TxBytesData:          "tx.bytes.data",
	TxBytesControl:       "tx.bytes.control",
	TxBytesTotal:         "tx.bytes.total",
	TxBytesRaw:           "tx.bytes.raw",
	TxRaw:                "tx.raw",
	TxRouteExhausted:     "tx.route_exhausted",
	TxNoNeighbor:         "tx.no_neighbor",
	CryptoSign:           "crypto.sign",
	CryptoVerify:         "crypto.verify",
	DADRounds:            "dad.rounds",
	DADObjectionsSent:    "dad.objections_sent",
	DADAREPAccepted:      "dad.arep_accepted",
	DADAREPRejected:      "dad.arep_rejected",
	DADDREPAccepted:      "dad.drep_accepted",
	DADDREPRejected:      "dad.drep_rejected",
	AddrRegenerated:      "addr.regenerated",
	DiscoveryAttempts:    "discovery.attempts",
	DiscoveryFailed:      "discovery.failed",
	FwdRREQ:              "fwd.RREQ",
	RREQRejected:         "rreq.rejected",
	RREPSent:             "rrep.sent",
	RREPUnsolicited:      "rrep.unsolicited",
	RREPRejected:         "rrep.rejected",
	RouteInstalled:       "route.installed",
	CREPSent:             "crep.sent",
	CREPUnsolicited:      "crep.unsolicited",
	CREPRejected:         "crep.rejected",
	DataSent:             "data.sent",
	DataDelivered:        "data.delivered",
	DataNoRoute:          "data.no_route",
	DataFirsthopFail:     "data.firsthop_fail",
	DataAckTimeout:       "data.ack_timeout",
	AckSent:              "ack.sent",
	AckUnsolicited:       "ack.unsolicited",
	AckRx:                "ack.rx",
	ProbeStarted:         "probe.started",
	ProbeInconclusive:    "probe.inconclusive",
	ProbeConcluded:       "probe.concluded",
	CreditPunished:       "credit.punished",
	FwdDroppedBehavior:   "fwd.dropped.behavior",
	FwdTTLExpired:        "fwd.ttl_expired",
	FwdRelayed:           "fwd.relayed",
	FwdLinkfail:          "fwd.linkfail",
	FwdSalvaged:          "fwd.salvaged",
	RERRSent:             "rerr.sent",
	RERRRejected:         "rerr.rejected",
	RERRAccepted:         "rerr.accepted",
	RouteInvalidated:     "route.invalidated",
	RERRSpammerFlagged:   "rerr.spammer_flagged",
	AuditAdvSent:         "audit.adv_sent",
	AuditReplaysIgnored:  "audit.replays_ignored",
	AuditAdvRejected:     "audit.adv_rejected",
	AuditConflicts:       "audit.conflicts",
	AuditObjectionsSent:  "audit.objections_sent",
	AuditObjRejected:     "audit.obj_rejected",
	AuditRekeys:          "audit.rekeys",
	DNSResolveStarted:    "dns.resolve_started",
	DNSResolveTimeout:    "dns.resolve_timeout",
	DNSAnswerAccepted:    "dns.answer_accepted",
	DNSAnswerRejected:    "dns.answer_rejected",
	DNSAnswerUnsolicited: "dns.answer_unsolicited",
	DNSRebindStarted:     "dns.rebind_started",
	DNSRebindTimeout:     "dns.rebind_timeout",
	DNSChalRejected:      "dns.chal_rejected",
	DNSResultRejected:    "dns.result_rejected",
	DNSRebindOK:          "dns.rebind_ok",
	DNSRebindFailed:      "dns.rebind_failed",
	DNSRebindAborted:     "dns.rebind_aborted",
	DNSWarnsAccepted:     "dns.warns_accepted",
	DNSPreloaded:         "dns.preloaded",
	DNSAREQ:              "dns.areq",
	DNSRegistered:        "dns.registered",
	DNSDREP:              "dns.drep",
	DNSWarnAccepted:      "dns.warn_accepted",
	DNSWarnRejected:      "dns.warn_rejected",
	DNSQuery:             "dns.query",
	DNSUpdateChallenge:   "dns.update_challenge",
	DNSUpdateOK:          "dns.update_ok",
	DNSUpdateRejected:    "dns.update_rejected",
}

// counterIDs maps each declared name back to its counter, for Get.
var counterIDs = func() map[string]Counter {
	ids := make(map[string]Counter, numCounters)
	for c, name := range counterNames {
		ids[name] = Counter(c)
	}
	return ids
}()

// byName lists the declared counters sorted by name, for CounterNames.
var byName = func() (cs [numCounters]Counter) {
	for c := range cs {
		cs[c] = Counter(c)
	}
	sort.Slice(cs[:], func(a, b int) bool { return counterNames[cs[a]] < counterNames[cs[b]] })
	return cs
}()

// String returns the counter's declared name.
func (c Counter) String() string { return counterNames[c] }
