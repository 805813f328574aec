package memory

// Backing is the byte storage behind one simulated allocation: a host
// Region or a device buffer. Most simulated bytes are never read back, and
// most of the rest are only ever set whole to one value (cudaMemset of an
// accumulator), so a Backing starts out uniform: every byte equals one
// value and nothing is allocated. It materializes a slice holding exactly
// the bytes eager storage would hold only on the first WriteAt or partial
// Fill of a different value, or when a caller asks for a View. A Fill
// covering the whole range makes it uniform again and drops the slice.
//
// Offsets are relative to the start of the allocation; callers check
// bounds before calling, and out-of-range offsets panic like slice
// indexing does. The zero Backing is an empty range.
type Backing struct {
	size int
	data []byte // nil while uniform
	v    byte   // value of every byte while data is nil
}

// NewBacking returns a zero-filled backing of size bytes without
// allocating them.
func NewBacking(size int) Backing { return Backing{size: size} }

// ReadAt copies len(p) bytes starting at off into p.
func (b *Backing) ReadAt(p []byte, off int) {
	if b.data != nil {
		copy(p, b.data[off:off+len(p)])
		return
	}
	b.check(off, len(p))
	fill(p, b.v)
}

// WriteAt stores p at off, materializing a uniform range first.
func (b *Backing) WriteAt(p []byte, off int) {
	if b.data == nil {
		b.check(off, len(p))
		b.materialize()
	}
	copy(b.data[off:off+len(p)], p)
}

// Fill sets n bytes at off to v. A fill of the whole range makes the
// backing uniform and detaches any earlier View; n <= 0 is a no-op.
func (b *Backing) Fill(off int, v byte, n int) {
	if n <= 0 {
		return
	}
	b.check(off, n)
	switch {
	case off == 0 && n == b.size:
		b.data, b.v = nil, v
	case b.data == nil && v == b.v:
		// Already uniform at v.
	default:
		if b.data == nil {
			b.materialize()
		}
		fill(b.data[off:off+n], v)
	}
}

// View returns a slice aliasing n bytes at off, materializing the range
// first if it is uniform. The caller must treat it as read-only and must
// not retain it: later writes change it, and a later whole-range Fill or
// Release detaches it from the backing.
func (b *Backing) View(off, n int) []byte {
	if b.data == nil {
		b.check(off, n)
		b.materialize()
	}
	return b.data[off : off+n : off+n]
}

// Release drops the storage; the range reads as zeros afterwards.
func (b *Backing) Release() { b.data, b.v = nil, 0 }

func (b *Backing) materialize() {
	b.data = make([]byte, b.size)
	fill(b.data, b.v)
}

func (b *Backing) check(off, n int) {
	if off < 0 || n < 0 || off+n > b.size {
		panic("memory: backing range out of bounds")
	}
}

// fill sets every byte of p to v, doubling the filled prefix so the work
// is done by copy rather than one byte at a time.
func fill(p []byte, v byte) {
	if v == 0 {
		clear(p)
		return
	}
	if len(p) == 0 {
		return
	}
	p[0] = v
	for n := 1; n < len(p); n *= 2 {
		copy(p[n:], p[:n])
	}
}
