package sbr6

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"sbr6/internal/scenario"
)

// ErrSnapshot is wrapped by every error Resume returns for a snapshot
// that cannot be decoded, validated or faithfully replayed.
var ErrSnapshot = errors.New("sbr6: invalid snapshot")

// snapshotVersion is bumped whenever the codec's meaning changes; Resume
// rejects versions it does not know instead of replaying them wrongly.
// Version 2: every session runs on the one-region engine with hashed radio
// draws, so a version 1 session can no longer replay to its digest.
const snapshotVersion = 2

// snapshotFile is the serialized form of a live session. A snapshot does
// not serialize simulator state — it stores the effective configuration,
// the adversary descriptors, the window-stamped op journal and the barrier
// index, because a session is a pure function of those: Resume rebuilds
// the scenario and re-runs it, applying each journaled op at its original
// barrier, then verifies the replayed state digest against the stored one.
type snapshotFile struct {
	Version     int             `json:"version"`
	Config      scenario.Config `json:"config"`
	Adversaries []advDescriptor `json:"adversaries,omitempty"`
	Journal     []sessionOp     `json:"journal,omitempty"`
	Windows     int             `json:"windows"`
	Digest      string          `json:"digest"`
}

// Snapshot serializes the session at the current window barrier. The
// bytes are a single compact JSON value (safe to embed in one
// newline-delimited control-plane frame) and are self-verifying: they
// carry a digest of the session's observable state that Resume recomputes
// after replay.
func (s *Session) Snapshot() ([]byte, error) {
	if err := s.ok(); err != nil {
		return nil, err
	}
	cfg := s.sc.Cfg
	cfg.Behaviors = nil // closures don't serialize; rebuilt from descriptors
	snap := snapshotFile{
		Version: snapshotVersion,
		Config:  cfg,
		Journal: s.journal,
		Windows: s.lv.Windows(),
	}
	for _, a := range s.spec.advs {
		snap.Adversaries = append(snap.Adversaries, a.descriptor())
	}
	d := s.lv.Digest()
	snap.Digest = hex.EncodeToString(d[:])
	return json.Marshal(snap)
}

// Resume rebuilds a session from Snapshot bytes: the scenario is built
// fresh from the stored configuration, bootstrapped, and replayed through
// the stored number of windows with every journaled op re-applied at its
// original barrier. Replayed windows are not re-emitted to Stream. The
// replayed state digest must match the stored one — a mismatch means the
// snapshot does not describe this build's deterministic run and is
// rejected. Taps and observers are not restored.
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
	cfg := snap.Config
	cfg.Behaviors = nil
	if err := snapshotSane(cfg); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
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

	sess, err := newSession(spec, cfg.Seed, true)
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
	sess.journal = append([]sessionOp(nil), snap.Journal...)
	return sess, nil
}

// snapshotSane rejects numeric garbage a hand-edited or corrupted
// snapshot could smuggle past scenario.Validate — values that would make
// the rebuild panic, hang or exhaust memory rather than fail cleanly.
// The public options enforce the same bounds at construction time, so a
// snapshot written by Snapshot always passes.
func snapshotSane(cfg scenario.Config) error {
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	// Virtual-time ceiling: a duration near the int64 horizon overflows
	// when added to the clock, scheduling events "in the past" that
	// re-execute forever. A year of virtual time is beyond any plausible
	// run; anything larger is corruption.
	const maxDur = 365 * 24 * time.Hour
	long := func(ds ...time.Duration) bool {
		for _, d := range ds {
			if d > maxDur {
				return true
			}
		}
		return false
	}
	r := cfg.Radio
	switch {
	case cfg.N > 1<<20:
		return fmt.Errorf("implausible node count %d", cfg.N)
	case bad(cfg.Area.W) || bad(cfg.Area.H) || cfg.Area.W <= 0 || cfg.Area.H <= 0:
		return fmt.Errorf("area %gx%g must be positive and finite", cfg.Area.W, cfg.Area.H)
	case cfg.Placement < scenario.PlaceUniform || cfg.Placement > scenario.PlaceLine:
		return fmt.Errorf("unknown placement %d", cfg.Placement)
	case bad(cfg.Spacing) || cfg.Spacing < 0:
		return fmt.Errorf("spacing %g must be finite and not negative", cfg.Spacing)
	case bad(r.Range) || r.Range < 0:
		return fmt.Errorf("radio range %g must be finite and not negative", r.Range)
	case bad(r.BitrateBps), r.BitrateBps != 0 && (r.BitrateBps < 1 || r.BitrateBps > 1e12):
		return fmt.Errorf("radio bitrate %g outside 0 (instantaneous) or [1, 1e12] b/s", r.BitrateBps)
	case math.IsNaN(r.LossRate) || r.LossRate < 0 || r.LossRate >= 1:
		return fmt.Errorf("loss rate %g outside [0,1)", r.LossRate)
	case r.PropDelay < 0 || r.BroadcastJitter < 0 || r.MaxQueueDelay < 0:
		return fmt.Errorf("negative radio delay")
	case long(r.PropDelay, r.BroadcastJitter, r.MaxQueueDelay):
		return fmt.Errorf("implausible radio delay")
	case bad(cfg.Mobility.MinSpeed) || bad(cfg.Mobility.MaxSpeed) ||
		cfg.Mobility.MinSpeed < 0 || cfg.Mobility.MaxSpeed < 0 ||
		cfg.Mobility.Pause < 0 || cfg.Mobility.Epoch < 0 ||
		long(cfg.Mobility.Pause, cfg.Mobility.Epoch):
		return fmt.Errorf("invalid mobility spec")
	case cfg.WindowSize <= 0 || cfg.Cooldown <= 0:
		return fmt.Errorf("live session needs positive window size and cooldown")
	case cfg.Warmup < 0 || cfg.BootStagger < 0 || cfg.Duration < 0:
		return fmt.Errorf("negative phase duration")
	case long(cfg.WindowSize, cfg.Cooldown, cfg.Warmup, cfg.BootStagger, cfg.Duration):
		return fmt.Errorf("implausible phase duration")
	case cfg.Protocol.DAD.Timeout <= 0 || cfg.Protocol.DiscoveryTimeout <= 0 ||
		cfg.Protocol.AckTimeout <= 0 || cfg.Protocol.ResolveTimeout <= 0:
		return fmt.Errorf("protocol timers must be positive")
	case long(cfg.Protocol.DAD.Timeout, cfg.Protocol.DiscoveryTimeout,
		cfg.Protocol.AckTimeout, cfg.Protocol.ResolveTimeout,
		cfg.Protocol.RouteTTL, cfg.Protocol.RERRWindow,
		cfg.Protocol.Audit.Period):
		return fmt.Errorf("implausible protocol timer")
	case cfg.Protocol.FloodCache < 0:
		return fmt.Errorf("negative flood cache bound %d", cfg.Protocol.FloodCache)
	// An undersized dedup set thrashes: floods are re-accepted and
	// re-broadcast every time their entry is evicted, and the storm
	// compounds across nodes. 0 selects the roomy auto-scaled default.
	case cfg.Protocol.FloodCache != 0 && cfg.Protocol.FloodCache < 256:
		return fmt.Errorf("flood cache bound %d invites broadcast storms", cfg.Protocol.FloodCache)
	// A sub-millisecond audit period schedules millions of signed
	// re-advertisements per virtual second — not a hang, but
	// indistinguishable from one.
	case cfg.Protocol.Audit.Period != 0 && cfg.Protocol.Audit.Period < time.Millisecond:
		return fmt.Errorf("audit period %v is implausibly small", cfg.Protocol.Audit.Period)
	case cfg.DNS.CommitDelay < 0:
		return fmt.Errorf("negative DNS commit delay")
	case cfg.Shards < 0 || cfg.Shards > 1<<10:
		return fmt.Errorf("implausible shard count %d", cfg.Shards)
	}
	for i, f := range cfg.Flows {
		if long(f.Interval, f.Start) || f.Size > 1<<30 {
			return fmt.Errorf("flow %d: implausible interval, start or size", i)
		}
	}
	return nil
}
