package memory

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestBackingModel runs random operation sequences against a Backing and
// a plain byte slice kept here, and requires the two to agree after every
// step. Fills are biased towards whole-range and zero/repeated values so
// the uniform and materialized states both get exercised and crossed.
func TestBackingModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(300)
		b := NewBacking(size)
		ref := make([]byte, size)
		span := func() (int, int) {
			off := rng.Intn(size + 1)
			return off, rng.Intn(size - off + 1)
		}
		value := func() byte { return []byte{0, 0, 0xAA, byte(rng.Intn(256))}[rng.Intn(4)] }
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(6); op {
			case 0: // ReadAt
				off, n := span()
				got := make([]byte, n)
				for i := range got {
					got[i] = 0x5C // ReadAt must overwrite, not rely on zeroed input
				}
				b.ReadAt(got, off)
				if !bytes.Equal(got, ref[off:off+n]) {
					t.Fatalf("seed %d step %d: ReadAt(%d,%d) = %v, want %v", seed, step, off, n, got, ref[off:off+n])
				}
			case 1: // WriteAt of random or repeated bytes
				off, n := span()
				p := make([]byte, n)
				if rng.Intn(2) == 0 {
					rng.Read(p)
				} else {
					fill(p, value())
				}
				b.WriteAt(p, off)
				copy(ref[off:], p)
			case 2: // partial Fill
				off, n := span()
				v := value()
				b.Fill(off, v, n)
				for i := off; i < off+n; i++ {
					ref[i] = v
				}
			case 3: // whole-range Fill
				v := value()
				b.Fill(0, v, size)
				for i := range ref {
					ref[i] = v
				}
				if b.data != nil {
					t.Fatalf("seed %d step %d: whole-range fill kept a slice", seed, step)
				}
			case 4: // View
				off, n := span()
				if got := b.View(off, n); !bytes.Equal(got, ref[off:off+n]) {
					t.Fatalf("seed %d step %d: View(%d,%d) = %v, want %v", seed, step, off, n, got, ref[off:off+n])
				}
				if b.data == nil {
					t.Fatalf("seed %d step %d: View left the backing uniform", seed, step)
				}
			case 5: // Release, rarely
				if rng.Intn(4) == 0 {
					b.Release()
					clear(ref)
				}
			}
		}
		got := make([]byte, size)
		b.ReadAt(got, 0)
		if !bytes.Equal(got, ref) {
			t.Fatalf("seed %d: final contents differ", seed)
		}
	}
}

func TestBackingStaysUniformUntilWritten(t *testing.T) {
	const size = 1 << 20
	b := NewBacking(size)
	b.Fill(10, 0, 1000)
	b.Fill(0, 7, size)
	b.Fill(5, 7, 50)
	if b.data != nil {
		t.Fatal("fills that change no byte materialized the backing")
	}
	got := make([]byte, 3)
	b.ReadAt(got, size-3)
	if !bytes.Equal(got, []byte{7, 7, 7}) {
		t.Fatalf("uniform read = %v", got)
	}
	b.WriteAt([]byte{1}, 0)
	if b.data == nil {
		t.Fatal("a write did not materialize")
	}
	b.ReadAt(got, 0)
	if !bytes.Equal(got, []byte{1, 7, 7}) {
		t.Fatalf("after write = %v", got)
	}
}

func TestBackingWholeFillDetachesView(t *testing.T) {
	b := NewBacking(16)
	v := b.View(0, 16)
	b.WriteAt([]byte{9}, 3)
	if v[3] != 9 {
		t.Fatal("view does not alias the materialized bytes")
	}
	b.Fill(0, 0xAA, 16)
	if v[3] != 9 {
		t.Fatal("whole-range fill wrote through a detached view")
	}
	got := make([]byte, 1)
	b.ReadAt(got, 3)
	if got[0] != 0xAA {
		t.Fatalf("read after whole fill = %#x", got[0])
	}
}

func TestBackingOutOfBoundsPanics(t *testing.T) {
	for name, f := range map[string]func(b *Backing){
		"read":  func(b *Backing) { b.ReadAt(make([]byte, 2), 7) },
		"write": func(b *Backing) { b.WriteAt([]byte{0, 0}, 7) },
		"fill":  func(b *Backing) { b.Fill(7, 1, 2) },
		"view":  func(b *Backing) { b.View(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past the end did not panic", name)
				}
			}()
			b := NewBacking(8)
			f(&b)
		}()
	}
}

func TestSpaceFill(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(64, "accum")
	if err := s.Poke(r.Base()+4, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Fill(r.Base()+5, 0xEE, 2); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Peek(r.Base()+4, 4)
	if !bytes.Equal(got, []byte{1, 0xEE, 0xEE, 4}) {
		t.Fatalf("partial fill = %v", got)
	}
	if err := s.Fill(r.Base(), 0, r.Size()); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Peek(r.Base(), r.Size())
	if !bytes.Equal(got, make([]byte, r.Size())) {
		t.Fatalf("whole fill left %v", got)
	}
	if s.Loads() != 0 || s.Stores() != 0 {
		t.Fatal("Fill generated access events")
	}
}

// TestSpaceFillErrors pins Fill to the errors Poke returns for the same
// ranges.
func TestSpaceFillErrors(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(32, "guarded")
	gone := s.Alloc(32, "gone")
	s.Free(gone)
	s.Protect(r)
	cases := []struct {
		name string
		addr Addr
		n    int
		want error
	}{
		{"protected", r.Base(), 4, ErrProtected},
		{"freed", gone.Base(), 4, ErrOutOfRange},
		{"past end", r.Base() + 30, 4, ErrOutOfRange},
		{"unmapped", 1, 1, ErrOutOfRange},
	}
	for _, c := range cases {
		if err := s.Fill(c.addr, 0, c.n); !errors.Is(err, c.want) {
			t.Errorf("%s: Fill err = %v, want %v", c.name, err, c.want)
		}
		if err := s.Poke(c.addr, make([]byte, c.n)); !errors.Is(err, c.want) {
			t.Errorf("%s: Poke err = %v, want %v", c.name, err, c.want)
		}
	}
}
