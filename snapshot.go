package sbr6

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"sbr6/internal/scenario"
)

// ErrSnapshot is wrapped by every error Resume returns for a snapshot
// that cannot be decoded, validated or faithfully replayed.
var ErrSnapshot = errors.New("sbr6: invalid snapshot")

// snapshotVersion is bumped whenever the codec's meaning changes; Resume
// rejects versions it does not know instead of replaying them wrongly.
// Version 2: every session runs on the one-region engine with hashed radio
// draws, so a version 1 session can no longer replay to its digest.
// Version 3: every draw is a hash of (seed, stream, node, counter)
// (internal/draw), so a version 2 session draws other keys and places.
const snapshotVersion = 3

// snapshotFile is the serialized form of a live session. A snapshot does
// not serialize simulator state — it stores the effective configuration,
// the adversary descriptors, the window-stamped op journal and the barrier
// index, because a session is a pure function of those: Resume rebuilds
// the scenario and re-runs it, applying each journaled op at its original
// barrier, then verifies the replayed state digest against the stored one.
type snapshotFile struct {
	snapshotHead
	Journal []sessionOp `json:"journal,omitempty"`
	Windows int         `json:"windows"`
	Digest  string      `json:"digest"`
}

// snapshotHead is the part of a snapshot fixed for the session's life:
// nothing changes the effective configuration after Serve, nor the
// adversaries.
type snapshotHead struct {
	Version     int             `json:"version"`
	Config      scenario.Config `json:"config"`
	Adversaries []advDescriptor `json:"adversaries,omitempty"`
}

// Snapshot serializes the session at the current window barrier. The
// bytes are a single compact JSON value (safe to embed in one
// newline-delimited control-plane frame) and are self-verifying: they
// carry a digest of the session's observable state that Resume recomputes
// after replay.
//
// The bytes are json.Marshal's of a snapshotFile, assembled from parts:
// the head, encoded at the first call, and the journal, encoded an op at
// a time as ops are applied, so a call encodes only the window count and
// the digest.
func (s *Session) Snapshot() ([]byte, error) {
	if err := s.ok(); err != nil {
		return nil, err
	}
	if s.head == nil {
		cfg := s.sc.Cfg
		cfg.Behaviors = nil // closures don't serialize; rebuilt from descriptors
		head := snapshotHead{Version: snapshotVersion, Config: cfg}
		for _, a := range s.spec.advs {
			head.Adversaries = append(head.Adversaries, a.descriptor())
		}
		b, err := json.Marshal(head)
		if err != nil {
			return nil, err
		}
		s.head = b[:len(b)-1] // the file's fields go on where the head's object closes
	}
	s.settle()
	d := s.lv.Digest()
	out := make([]byte, 0, len(s.head)+len(s.journal)+128)
	out = append(out, s.head...)
	if len(s.journal) > 0 {
		out = append(out, `,"journal":[`...)
		out = append(out, s.journal...)
		out = append(out, ']')
	}
	out = append(out, `,"windows":`...)
	out = strconv.AppendInt(out, int64(s.lv.Windows()), 10)
	out = append(out, `,"digest":"`...)
	out = hex.AppendEncode(out, d[:])
	return append(out, `"}`...), nil
}

// Resume rebuilds a session from Snapshot bytes: the scenario is built
// fresh from the stored configuration, bootstrapped, and replayed through
// the stored number of windows with every journaled op re-applied at its
// original barrier. Replayed windows are not re-emitted to Stream. The
// replayed state digest must match the stored one — a mismatch means the
// snapshot does not describe this build's deterministic run and is
// rejected. The stored configuration must pass the rule NewScenario
// applies, so a session's own snapshot is refused only once its warmup
// and windows span more than a year of virtual time. Taps and observers
// are not restored.
func Resume(data []byte) (*Session, error) {
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (this build reads %d)", ErrSnapshot, snap.Version, snapshotVersion)
	}
	if snap.Windows < 0 {
		return nil, fmt.Errorf("%w: negative window count %d", ErrSnapshot, snap.Windows)
	}
	cfg := scenario.Defaults(snap.Config)
	cfg.Behaviors = nil
	spec := &Scenario{cfg: cfg, areaSet: true}
	for _, d := range snap.Adversaries {
		a, err := adversaryFromDescriptor(d)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
		}
		spec.advs = append(spec.advs, a)
	}
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	// The replay runs every window, so a count past the virtual-time
	// ceiling is refused before it starts. Validate bounded Warmup by the
	// ceiling and WindowSize is positive once defaulted, so neither the
	// difference nor the quotient overflows.
	if int64(snap.Windows) > int64((scenario.MaxVirtual-cfg.Warmup)/cfg.WindowSize) {
		return nil, fmt.Errorf("%w: window count %d runs past %v of virtual time", ErrSnapshot, snap.Windows, scenario.MaxVirtual)
	}

	sess, err := newSession(spec, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	sess.lv.Suppress = true // replayed windows were already streamed
	sess.configured = sess.lv.Start()
	opIdx, done := 0, 0
	for {
		for opIdx < len(snap.Journal) && snap.Journal[opIdx].Window == done {
			op := snap.Journal[opIdx]
			switch op.Kind {
			case opInject:
				idx, err := sess.lv.Join(op.Name, nil)
				if err != nil {
					return nil, fmt.Errorf("%w: replaying %s at window %d: %v", ErrSnapshot, op.Kind, op.Window, err)
				}
				if idx != op.Index {
					return nil, fmt.Errorf("%w: replayed inject yielded index %d, journal says %d", ErrSnapshot, idx, op.Index)
				}
			case opEject:
				if err := sess.lv.Leave(op.Index); err != nil {
					return nil, fmt.Errorf("%w: replaying %s of node %d at window %d: %v", ErrSnapshot, op.Kind, op.Index, op.Window, err)
				}
			default:
				return nil, fmt.Errorf("%w: unknown journal op %q", ErrSnapshot, op.Kind)
			}
			opIdx++
		}
		if done >= snap.Windows {
			break
		}
		sess.lv.Step()
		done++
	}
	if opIdx != len(snap.Journal) {
		return nil, fmt.Errorf("%w: journal op stamped window %d never became applicable before the barrier at %d",
			ErrSnapshot, snap.Journal[opIdx].Window, snap.Windows)
	}
	d := sess.lv.Digest()
	if got := hex.EncodeToString(d[:]); got != snap.Digest {
		return nil, fmt.Errorf("%w: state digest mismatch after replay (snapshot %.16s…, replay %.16s…)", ErrSnapshot, snap.Digest, got)
	}
	sess.lv.Suppress = false
	for _, op := range snap.Journal {
		sess.record(op)
	}
	return sess, nil
}
