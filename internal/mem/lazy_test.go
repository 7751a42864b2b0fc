package mem

import (
	"bytes"
	"runtime"
	"testing"
)

// pattern fills b with a nonzero byte sequence derived from seed.
func pattern(b []byte, seed byte) {
	for i := range b {
		b[i] = seed ^ byte(i) ^ 0x5a
	}
}

func TestUnbackedReadAndZeroAllocateNothing(t *testing.T) {
	p := NewPhysical(16 * PageSize)
	buf := make([]byte, 3*PageSize)
	allocs := testing.AllocsPerRun(100, func() {
		pattern(buf, 7)
		// Straddles frames 0..3 without starting on a boundary.
		if err := p.ReadPhys(PageSize/2, buf); err != nil {
			t.Fatal(err)
		}
		if err := p.Zero(5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("unbacked ReadPhys+Zero allocated %v times per run", allocs)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatal("unbacked read did not clear the caller's buffer")
	}
	for f, b := range p.frames {
		if b != nil {
			t.Fatalf("frame %d became backed by a read or zero", f)
		}
	}
}

func TestCopyFrameFromUnbackedZeroesStaleDst(t *testing.T) {
	p := NewPhysical(8 * PageSize)
	src, _ := p.Alloc(OwnerKernel)
	dst, _ := p.Alloc(OwnerKernel)
	stale := make([]byte, PageSize)
	pattern(stale, 1)
	if err := p.WritePhys(dst.Base(), stale); err != nil {
		t.Fatal(err)
	}
	if err := p.CopyFrame(dst, src); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := p.ReadPhys(dst.Base(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, PageSize)) {
		t.Fatal("copy from an unbacked frame left stale bytes in dst")
	}
	if p.frames[src] != nil {
		t.Fatal("copy created backing for its unbacked source")
	}
}

func TestFreedFrameKeepsStaleBytes(t *testing.T) {
	p := NewPhysical(8 * PageSize)
	f, _ := p.Alloc(OwnerKernel)
	old := make([]byte, PageSize)
	pattern(old, 9)
	if err := p.WritePhys(f.Base(), old); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(f); err != nil {
		t.Fatal(err)
	}
	g, _ := p.Alloc(OwnerKernel + 1)
	if g != f {
		t.Fatalf("LIFO free list reissued frame %d, want %d", g, f)
	}
	got := make([]byte, PageSize)
	if err := p.ReadPhys(g.Base(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("reissued frame lost its previous owner's bytes (Free must not scrub)")
	}
}

func TestNewPhysicalIsSparse(t *testing.T) {
	const size = 1 << 30
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewPhysical(size)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	if got := after.TotalAlloc - before.TotalAlloc; got >= size/10 {
		t.Fatalf("NewPhysical(1 GiB) allocated %d bytes, want < %d", got, size/10)
	}
}

// physModel is the flat reference FuzzPhysicalMatchesFlat checks Physical
// against: one eagerly backed byte array plus the allocated-frame set.
type physModel struct {
	data  []byte
	alloc map[Frame]bool
}

func (m *physModel) inRange(a, n int) bool { return a >= 0 && n >= 0 && a+n <= len(m.data) }

// FuzzPhysicalMatchesFlat decodes the input into a sequence of memory
// operations on a small Physical and replays each against a flat reference.
// Every read (ReadPhys, Bytes) must match the reference byte for byte, and
// every operation must fail exactly when the reference says it should.
// Accesses are placed around frame boundaries so they straddle frames.
func FuzzPhysicalMatchesFlat(f *testing.F) {
	const nframes = 6
	f.Fuzz(func(t *testing.T, prog []byte) {
		p := NewPhysical(nframes * PageSize)
		m := &physModel{data: make([]byte, nframes*PageSize), alloc: map[Frame]bool{}}
		// addr places an access near a frame boundary: frame index from one
		// byte, signed offset from the next (±2 KiB around the boundary).
		addr := func(b0, b1 byte) int {
			return int(b0%(nframes+1))*PageSize + int(int8(b1))*17
		}
		frame := func(b byte) Frame { return Frame(b % (nframes + 1)) }
		for len(prog) >= 5 {
			op, b1, b2, b3, b4 := prog[0], prog[1], prog[2], prog[3], prog[4]
			prog = prog[5:]
			switch op % 7 {
			case 0: // Alloc
				g, err := p.Alloc(OwnerKernel)
				if (err != nil) != (len(m.alloc) == nframes) {
					t.Fatalf("Alloc err=%v with %d frames allocated", err, len(m.alloc))
				}
				if err == nil {
					if m.alloc[g] {
						t.Fatalf("Alloc reissued live frame %d", g)
					}
					m.alloc[g] = true
				}
			case 1: // Free
				g := frame(b1)
				err := p.Free(g)
				if (err != nil) != !m.alloc[g] {
					t.Fatalf("Free(%d) err=%v, allocated=%v", g, err, m.alloc[g])
				}
				delete(m.alloc, g)
			case 2: // WritePhys
				a, n := addr(b1, b2), int(b3)*33
				buf := make([]byte, n)
				pattern(buf, b4)
				if a < 0 {
					a = 0
				}
				err := p.WritePhys(Addr(a), buf)
				if (err != nil) != !m.inRange(a, n) {
					t.Fatalf("WritePhys(%#x, %d) err=%v", a, n, err)
				}
				if err == nil {
					copy(m.data[a:], buf)
				}
			case 3: // ReadPhys into a dirty buffer
				a, n := addr(b1, b2), int(b3)*33
				if a < 0 {
					a = 0
				}
				buf := make([]byte, n)
				pattern(buf, b4)
				err := p.ReadPhys(Addr(a), buf)
				if (err != nil) != !m.inRange(a, n) {
					t.Fatalf("ReadPhys(%#x, %d) err=%v", a, n, err)
				}
				if err == nil && !bytes.Equal(buf, m.data[a:a+n]) {
					t.Fatalf("ReadPhys(%#x, %d) disagrees with the flat reference", a, n)
				}
			case 4: // Zero
				g := frame(b1)
				err := p.Zero(g)
				if (err != nil) != (g >= nframes) {
					t.Fatalf("Zero(%d) err=%v", g, err)
				}
				if err == nil {
					clear(m.data[g.Base() : g.Base()+PageSize])
				}
			case 5: // CopyFrame
				dst, src := frame(b1), frame(b2)
				err := p.CopyFrame(dst, src)
				if (err != nil) != !(m.alloc[dst] && m.alloc[src]) {
					t.Fatalf("CopyFrame(%d, %d) err=%v", dst, src, err)
				}
				if err == nil {
					copy(m.data[dst.Base():dst.Base()+PageSize], m.data[src.Base():])
				}
			case 6: // write through Bytes, after checking the view
				g := frame(b1)
				b, err := p.Bytes(g)
				if (err != nil) != (g >= nframes) {
					t.Fatalf("Bytes(%d) err=%v", g, err)
				}
				if err != nil {
					continue
				}
				ref := m.data[g.Base() : g.Base()+PageSize]
				if !bytes.Equal(b, ref) {
					t.Fatalf("Bytes(%d) disagrees with the flat reference", g)
				}
				lo := int(b2) * 16
				hi := min(lo+int(b3)*16, PageSize)
				pattern(b[lo:hi], b4)
				copy(ref[lo:hi], b[lo:hi])
			}
		}
		all := make([]byte, len(m.data))
		if err := p.ReadPhys(0, all); err != nil {
			t.Fatal(err)
		}
		for i := range all {
			if all[i] != m.data[i] {
				t.Fatalf("final memory differs at %#x: got %#x, want %#x", i, all[i], m.data[i])
			}
		}
	})
}
