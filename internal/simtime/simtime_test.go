package simtime

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(5 * Millisecond)
	if got := c.Now(); got != Time(5*Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", got)
	}
	c.Advance(0)
	if got := c.Now(); got != Time(5*Millisecond) {
		t.Fatalf("zero advance moved clock to %v", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(Time(Second))
	if c.Now() != Time(Second) {
		t.Fatalf("Now() = %v, want 1s", c.Now())
	}
	c.AdvanceTo(Time(Second)) // same instant is fine
}

func TestClockAdvanceToBackwardsPanics(t *testing.T) {
	c := NewClock()
	c.Advance(Second)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards AdvanceTo did not panic")
		}
	}()
	c.AdvanceTo(Time(Millisecond))
}

func TestTimeAddSaturatesAtInfinity(t *testing.T) {
	if got := Infinity.Add(Second); got != Infinity {
		t.Fatalf("Infinity.Add = %v, want Infinity", got)
	}
	near := Time(int64(Infinity) - 1)
	if got := near.Add(Duration(10)); got != Infinity {
		t.Fatalf("overflow Add = %v, want Infinity", got)
	}
}

func TestTimeSub(t *testing.T) {
	a, b := Time(10*Second), Time(4*Second)
	if d := a.Sub(b); d != 6*Second {
		t.Fatalf("Sub = %v, want 6s", d)
	}
}

func TestTimeOrdering(t *testing.T) {
	if !Time(1).Before(Time(2)) || Time(2).Before(Time(1)) {
		t.Fatal("Before misordered")
	}
	if !Time(2).After(Time(1)) || Time(1).After(Time(2)) {
		t.Fatal("After misordered")
	}
}

func TestMaxMin(t *testing.T) {
	if Max(Time(1), Time(2)) != Time(2) || Max(Time(3), Time(2)) != Time(3) {
		t.Fatal("Max wrong")
	}
	if Min(Time(1), Time(2)) != Time(1) || Min(Time(3), Time(2)) != Time(2) {
		t.Fatal("Min wrong")
	}
	if MaxDuration(Second, Millisecond) != Second {
		t.Fatal("MaxDuration wrong")
	}
}

func TestDurationHelpers(t *testing.T) {
	d := 1500 * Millisecond
	if d.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", d.Seconds())
	}
	if d.String() != "1.5s" {
		t.Fatalf("String = %q, want 1.5s", d.String())
	}
	if Time(Infinity).String() != "+inf" {
		t.Fatalf("Infinity String = %q", Time(Infinity).String())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/100 collisions between different seeds", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(11)
	base := 100 * Microsecond
	for i := 0; i < 1000; i++ {
		j := r.Jitter(base, 0.25)
		lo := Duration(float64(base) * 0.74)
		hi := Duration(float64(base) * 1.26)
		if j < lo || j > hi {
			t.Fatalf("Jitter %v outside [%v, %v]", j, lo, hi)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("zero-frac Jitter changed value")
	}
}

func TestRNGBytesDeterministic(t *testing.T) {
	a := make([]byte, 37)
	b := make([]byte, 37)
	NewRNG(5).Bytes(a)
	NewRNG(5).Bytes(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
	// Not all zero.
	zero := true
	for _, v := range a {
		if v != 0 {
			zero = false
			break
		}
	}
	if zero {
		t.Fatal("Bytes produced all-zero output")
	}
}

// TestRNGBytesMatchesBytewiseStream pins Bytes to the byte-at-a-time
// stream it replaced: each Uint64 yields eight bytes, least significant
// first, and a short tail consumes one more Uint64. Kernel writes and every
// app payload hash depend on this stream.
func TestRNGBytesMatchesBytewiseStream(t *testing.T) {
	bytewise := func(r *RNG, p []byte) {
		for i := 0; i < len(p); i += 8 {
			v := r.Uint64()
			for j := 0; j < 8 && i+j < len(p); j++ {
				p[i+j] = byte(v >> (8 * j))
			}
		}
	}
	lengths := []int{64<<10 + 3}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		got, want := make([]byte, n), make([]byte, n)
		gr, wr := NewRNG(uint64(n)+11), NewRNG(uint64(n)+11)
		gr.Bytes(got)
		bytewise(wr, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("len %d: Bytes diverges from the bytewise stream", n)
		}
		// Both consumed the same number of draws.
		if gr.Uint64() != wr.Uint64() {
			t.Fatalf("len %d: RNG state diverges after Bytes", n)
		}
	}
}

func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(base int32, delta uint16) bool {
		start := Time(base)
		d := Duration(delta)
		return start.Add(d).Sub(start) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaxMinAgree(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		return Max(x, y) >= Min(x, y) && (Max(x, y) == x || Max(x, y) == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
