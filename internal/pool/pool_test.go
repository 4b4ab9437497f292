package pool

import (
	"bytes"
	"testing"
)

func TestClassSelection(t *testing.T) {
	cases := []struct {
		n, wantCap int
	}{
		{0, MinClass}, {1, MinClass}, {64, 64}, {65, 128}, {128, 128},
		{129, 256}, {512, 512}, {1000, 1024}, {4096, 4096}, {4097, 8192}, {8192, 8192},
	}
	p := New()
	for _, c := range cases {
		b := p.Get(c.n)
		if len(b) != 0 || cap(b) != c.wantCap {
			t.Errorf("Get(%d): len=%d cap=%d, want len=0 cap=%d", c.n, len(b), cap(b), c.wantCap)
		}
		p.Put(b)
	}
}

func TestRecycling(t *testing.T) {
	p := New()
	a := p.Get(100)
	a = append(a, 1, 2, 3)
	p.Put(a)
	b := p.Get(100)
	if &a[:1][0] != &b[:1][0] {
		t.Error("second Get of the same class did not recycle the returned buffer")
	}
	if len(b) != 0 {
		t.Errorf("recycled buffer has len %d, want 0", len(b))
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.Misses != 1 || st.Live != 1 || st.HighWater != 1 {
		t.Errorf("stats after recycle: %+v", st)
	}
}

func TestOversizeNeverPooled(t *testing.T) {
	p := New()
	b := p.Get(MaxClass + 1)
	if cap(b) < MaxClass+1 {
		t.Fatalf("oversize Get cap %d too small", cap(b))
	}
	if st := p.Stats(); st.Oversize != 1 {
		t.Errorf("oversize not counted: %+v", st)
	}
	p.Put(b) // classified by capacity into the largest class
	if st := p.Stats(); st.Live != 0 {
		t.Errorf("Put did not balance Live: %+v", st)
	}
}

func TestPoison(t *testing.T) {
	p := New()
	p.SetPoison(true)
	b := p.Get(32)
	b = append(b, []byte("retained frame bytes")...)
	keep := b
	p.Put(b)
	if !bytes.Equal(keep, bytes.Repeat([]byte{poisonByte}, len(keep))) {
		t.Error("poison mode did not overwrite the released buffer")
	}
	c := p.Get(32)
	if len(c) != 0 {
		t.Errorf("poisoned recycled buffer has len %d", len(c))
	}
}

func TestHighWaterTracksInFlight(t *testing.T) {
	p := New()
	var out [][]byte
	for i := 0; i < 10; i++ {
		out = append(out, p.Get(256))
	}
	for _, b := range out {
		p.Put(b)
	}
	// A second wave of the same size must not raise the high-water mark.
	for i := 0; i < 10; i++ {
		out[i] = p.Get(256)
	}
	for _, b := range out {
		p.Put(b)
	}
	st := p.Stats()
	if st.HighWater != 10 {
		t.Errorf("high water %d, want 10", st.HighWater)
	}
	if st.Live != 0 {
		t.Errorf("live %d after full drain, want 0", st.Live)
	}
	if st.Misses != 10 {
		t.Errorf("misses %d, want 10 (second wave fully recycled)", st.Misses)
	}
}
