package latency

import (
	"net"
	"testing"
	"time"
)

func TestZeroModelInjectsNothing(t *testing.T) {
	s := NewSource(Model{}, 1)
	a, b := net.Pipe()
	defer b.Close()
	l := s.Link(a)
	defer l.Close()
	start := time.Now()
	go b.Write([]byte("x"))
	l.Read(make([]byte, 1))
	go b.Read(make([]byte, 1))
	l.Write([]byte("x"))
	s.CommitIO()
	s.Statement()
	s.ApplyWriteSet()
	s.LocalCommit()
	s.Think(0)
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("zero model slept %v", elapsed)
	}
}

// TestLinkChargesEachMessage: a Write pays OneWay before it writes, a
// Read that returns bytes pays it before it returns them.
func TestLinkChargesEachMessage(t *testing.T) {
	const ow = 20 * time.Millisecond
	a, b := net.Pipe()
	defer b.Close()
	l := NewSource(Model{OneWay: ow}, 1).Link(a)
	defer l.Close()
	go func() {
		buf := make([]byte, 1)
		b.Read(buf)
		b.Write(buf)
	}()
	start := time.Now()
	if _, err := l.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < ow {
		t.Fatalf("write took %v, want at least OneWay %v", d, ow)
	}
	start = time.Now()
	if _, err := l.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < ow {
		t.Fatalf("read took %v, want at least OneWay %v", d, ow)
	}
}

func TestJitterBounds(t *testing.T) {
	m := Model{OneWay: time.Second, Jitter: 0.2, Scale: 1}
	s := NewSource(m, 7)
	for i := 0; i < 1000; i++ {
		d := s.jittered(m.OneWay)
		if d < 800*time.Millisecond || d > 1200*time.Millisecond {
			t.Fatalf("jittered duration %v outside ±20%%", d)
		}
	}
}

func TestScaleApplied(t *testing.T) {
	m := Model{OneWay: time.Second, Scale: 0.25}
	s := NewSource(m, 7)
	d := s.jittered(m.OneWay)
	if d != 250*time.Millisecond {
		t.Fatalf("scaled duration = %v, want 250ms", d)
	}
	// Scale 0 means 1.0.
	s0 := NewSource(Model{OneWay: time.Second}, 7)
	if d := s0.jittered(time.Second); d != time.Second {
		t.Fatalf("unscaled duration = %v", d)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	m := Model{OneWay: time.Second, Jitter: 0.5, Scale: 1}
	a := NewSource(m, 42)
	b := NewSource(m, 42)
	for i := 0; i < 100; i++ {
		if a.jittered(m.OneWay) != b.jittered(m.OneWay) {
			t.Fatal("same seed, different jitter")
		}
	}
	c := NewSource(m, 43)
	same := true
	a = NewSource(m, 42)
	for i := 0; i < 10; i++ {
		if a.jittered(m.OneWay) != c.jittered(m.OneWay) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestHeavyTail(t *testing.T) {
	m := Model{ApplyWriteSet: time.Millisecond, TailProb: 0.5, TailFactor: 10, Scale: 1}
	s := NewSource(m, 9)
	tails := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if s.heavyTailed(m.ApplyWriteSet) >= 10*time.Millisecond {
			tails++
		}
	}
	if tails < n*4/10 || tails > n*6/10 {
		t.Fatalf("tail hit %d/%d times, want ≈50%%", tails, n)
	}
	// Disabled tail never stretches.
	s2 := NewSource(Model{ApplyWriteSet: time.Millisecond, Scale: 1}, 9)
	for i := 0; i < 100; i++ {
		if s2.heavyTailed(time.Millisecond) != time.Millisecond {
			t.Fatal("tail applied when disabled")
		}
	}
}

func TestThinkExponentialAndCapped(t *testing.T) {
	m := Model{Scale: 1}
	s := NewSource(m, 11)
	// With a tiny mean, Think returns quickly and never exceeds 5×mean
	// by construction; just exercise it.
	start := time.Now()
	for i := 0; i < 10; i++ {
		s.Think(time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Think stalled: %v", elapsed)
	}
}

func TestDefaultLANRatios(t *testing.T) {
	m := DefaultLAN()
	if m.ApplyWriteSet <= m.OneWay {
		t.Fatal("apply cost must exceed a network hop")
	}
	if m.CommitIO <= m.LocalCommit {
		t.Fatal("forced commit I/O must exceed a non-forced local commit")
	}
	if m.TailProb <= 0 || m.TailFactor <= 1 {
		t.Fatal("default model must model stragglers")
	}
	scaled := m.Scaled(0.5)
	if scaled.Scale != 0.5 || m.Scale != 1.0 {
		t.Fatal("Scaled must copy, not mutate")
	}
}
