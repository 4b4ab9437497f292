package sbr6

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"testing"
	"time"

	"sbr6/internal/scenario"
)

// marshalSnapshot is the encoder Snapshot replaced, kept as its oracle:
// the whole file marshalled by json.Marshal from the session's state, with
// the journal the caller says was applied.
func marshalSnapshot(t *testing.T, s *Session, journal []sessionOp) []byte {
	t.Helper()
	type wholeFile struct { // snapshotFile's fields, flat, as they were declared
		Version     int             `json:"version"`
		Config      scenario.Config `json:"config"`
		Adversaries []advDescriptor `json:"adversaries,omitempty"`
		Journal     []sessionOp     `json:"journal,omitempty"`
		Windows     int             `json:"windows"`
		Digest      string          `json:"digest"`
	}
	cfg := s.sc.Cfg
	cfg.Behaviors = nil
	snap := wholeFile{Version: snapshotVersion, Config: cfg, Journal: journal, Windows: s.lv.Windows()}
	for _, a := range s.spec.advs {
		snap.Adversaries = append(snap.Adversaries, a.descriptor())
	}
	d := s.lv.Digest()
	snap.Digest = hex.EncodeToString(d[:])
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// journaled drives a session and keeps the journal its ops should leave.
type journaled struct {
	t       *testing.T
	s       *Session
	journal []sessionOp
}

func (j *journaled) inject(name string) int {
	j.t.Helper()
	idx, err := j.s.Inject(name)
	if err != nil {
		j.t.Fatal(err)
	}
	j.journal = append(j.journal, sessionOp{Window: j.s.Windows(), Kind: opInject, Name: name, Index: idx})
	return idx
}

func (j *journaled) eject(idx int) {
	j.t.Helper()
	if err := j.s.Eject(idx); err != nil {
		j.t.Fatal(err)
	}
	j.journal = append(j.journal, sessionOp{Window: j.s.Windows(), Kind: opEject, Index: idx})
}

func (j *journaled) advance(windows int) {
	j.t.Helper()
	if err := j.s.Advance(windows); err != nil {
		j.t.Fatal(err)
	}
}

// check requires Snapshot to give the old encoder's bytes, and returns
// them.
func (j *journaled) check(where string) []byte {
	j.t.Helper()
	got, err := j.s.Snapshot()
	if err != nil {
		j.t.Fatal(err)
	}
	if want := marshalSnapshot(j.t, j.s, j.journal); !bytes.Equal(got, want) {
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		from := max(0, at-60)
		j.t.Fatalf("%s: Snapshot differs from json.Marshal of the whole file at byte %d:\n got …%.120s\nwant …%.120s",
			where, at, got[from:], want[from:])
	}
	return got
}

// TestSnapshotBytesMatchMarshal holds the bytes Snapshot assembles from
// its cached head and journal to json.Marshal of the whole file, on plain,
// named, adversarial and resumed sessions: before the first Advance,
// after an Inject and an Eject at one barrier, after each Advance and
// after ops on a resumed session.
func TestSnapshotBytesMatchMarshal(t *testing.T) {
	base := []Option{
		WithSeed(9),
		WithNodes(12),
		WithArea(600, 600),
		WithFastTimers(),
		WithWarmup(time.Second),
		WithWindows(500 * time.Millisecond),
		WithCooldown(time.Second),
		WithFlows(Flow{From: 1, To: 2, Interval: 250 * time.Millisecond, Size: 64}),
	}
	kinds := []struct {
		name  string
		extra []Option
	}{
		{"plain", nil},
		{"named", []Option{
			WithName(3, "hub.example"),
			// json.Marshal escapes <, > and &, quotes and U+2028.
			WithName(5, "a<b>&\"c\u2028ü.example"),
			WithPreload("www.example", 4),
		}},
		{"adversarial", []Option{WithAdversaries(
			GrayHole(6, 0.25),
			RERRSpammer(7),
			Replay(8, 300*time.Millisecond),
		)}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			sc, err := NewScenario(append(append([]Option(nil), base...), k.extra...)...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := Serve(sc)
			if err != nil {
				t.Fatal(err)
			}
			j := &journaled{t: t, s: sess}
			j.check("before the first Advance")
			first := j.inject("late<&>.example")
			j.eject(2)
			j.check("after an Inject and an Eject at one barrier")
			for w := 1; w <= 3; w++ {
				j.advance(1)
				j.check("after Advance " + strconv.Itoa(w))
			}
			j.inject("")
			j.eject(first)
			j.advance(1)
			snap := j.check("after a second Inject and Eject")

			resumed, err := Resume(snap)
			if err != nil {
				t.Fatal(err)
			}
			r := &journaled{t: t, s: resumed, journal: append([]sessionOp(nil), j.journal...)}
			if got := r.check("after Resume"); !bytes.Equal(got, snap) {
				t.Fatalf("the resumed session's snapshot differs from the one it resumed")
			}
			r.inject("after.resume.example")
			r.advance(2)
			r.check("after an Inject and Advance on the resumed session")
		})
	}
}
