// Package workloads defines the common shape of the paper's five
// real-world service scenarios (Table 5) plus helpers for reading shared
// datasets out of simulated memory. Each sub-package implements one
// scenario with a genuine (scaled-down) algorithm:
//
//	llm        — llama.cpp:   GPT-style transformer inference
//	imgproc    — yolo:        convolutional detection pipeline
//	retrieval  — drugbank:    in-memory hash-database retrieval
//	graph      — graphchi:    sharded PageRank
//	ids        — unicorn:     streaming provenance-graph sketching
package workloads

import (
	"encoding/binary"

	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// Workload is one runnable scenario.
type Workload interface {
	// Name is the paper's program name (llama.cpp, yolo, ...).
	Name() string
	// CommonData returns the shared read-only dataset (model, database),
	// or nil when the scenario uses only confined memory.
	CommonData() []byte
	// Input is the client request payload.
	Input() []byte
	// HeapPages sizes the confined LibOS heap.
	HeapPages() uint64
	// Threads is the worker-thread count (8 in the paper's runs).
	Threads() int
	// Run executes the service computation and returns the response.
	// commonVA is the attached common region base (0 if none).
	Run(ctx *Ctx) []byte
}

// Ctx carries the execution environment into a workload run.
type Ctx struct {
	E        *kernel.Env
	CommonVA paging.Addr
	Input    []byte
	// Alloc allocates confined memory (LibOS heap inside a sandbox, plain
	// mmap natively).
	Alloc func(n int) paging.Addr
	// Spawn creates a worker thread (LibOS thread pool inside a sandbox).
	Spawn func(name string, fn func(e *kernel.Env))
	// CPUIDEvery issues a cpuid (time-source probe -> #VE in a TD) every N
	// work items; 0 disables.
	CPUIDEvery int

	// Sync models one worker-pool synchronization point (thread barrier /
	// work-queue handoff). The driver supplies the configuration-specific
	// implementation: pthread/futex natively, userspace spinlocks under the
	// LibOS (§6.2 service 3). contended marks barriers where workers
	// actually wait.
	Sync func(contended bool)
	// SyncContendEvery makes every Nth sync point contended (default 4).
	SyncContendEvery int

	cpuidCount int
	syncCount  int
}

// SyncPoint is called by workloads at their natural barrier points.
func (c *Ctx) SyncPoint() {
	if c.Sync == nil {
		return
	}
	every := c.SyncContendEvery
	if every <= 0 {
		every = 4
	}
	c.syncCount++
	c.Sync(c.syncCount%every == 0)
}

// WorkTick is called once per work item; it fires the periodic cpuid.
func (c *Ctx) WorkTick() {
	if c.CPUIDEvery <= 0 {
		return
	}
	c.cpuidCount++
	if c.cpuidCount%c.CPUIDEvery == 0 {
		c.E.CPUID(1)
	}
}

// View is a window over a range of simulated user memory. It caches the
// per-page backing slices but re-probes the mapping on Touch so that
// memory-pressure eviction produces honest page faults.
type View struct {
	E    *kernel.Env
	Base paging.Addr
	Size int

	pages [][]byte
}

// NewView builds a view over [base, base+size).
func NewView(e *kernel.Env, base paging.Addr, size int) *View {
	n := (int(base&0xFFF) + size + mem.PageSize - 1) / mem.PageSize
	return &View{E: e, Base: base, Size: size, pages: make([][]byte, n)}
}

// page returns the cached backing slice of page idx, probing the mapping
// once if the slice is unknown. Between Touch passes the cached slice is
// used directly (a TLB-hit fast path); Touch re-probes every page so that
// memory-pressure eviction produces honest page faults at work-item
// granularity.
func (v *View) page(idx int) []byte {
	if b := v.pages[idx]; b != nil {
		return b
	}
	va := paging.PageBase(v.Base) + paging.Addr(idx*mem.PageSize)
	b := v.E.Page(va)
	v.pages[idx] = b
	return b
}

// Touch re-probes every page of the view, faulting evicted ones back in.
// Call once per work item (token, image, query batch) over shared data.
func (v *View) Touch() {
	for i := range v.pages {
		va := paging.PageBase(v.Base) + paging.Addr(i*mem.PageSize)
		if _, ok := v.E.T.P.AS.Translate(va); !ok || v.pages[i] == nil {
			v.pages[i] = v.E.Page(va)
		}
	}
}

// Byte reads the byte at offset off from Base.
func (v *View) Byte(off int) byte {
	a := int(v.Base&0xFFF) + off
	return v.page(a / mem.PageSize)[a%mem.PageSize]
}

// U32 reads a little-endian uint32 at offset off.
func (v *View) U32(off int) uint32 {
	a := int(v.Base&0xFFF) + off
	p, o := a/mem.PageSize, a%mem.PageSize
	if o+4 <= mem.PageSize {
		return binary.LittleEndian.Uint32(v.page(p)[o:])
	}
	var b [4]byte
	v.CopyOut(off, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// F32 reads a float32 at offset off.
func (v *View) F32(off int) float32 {
	return f32frombits(v.U32(off))
}

// F32Row copies len(dst) float32s starting at offset off into dst
// (row-major weight rows; spans pages).
func (v *View) F32Row(off int, dst []float32) {
	a := int(v.Base&0xFFF) + off
	for len(dst) > 0 {
		src := v.run(a, len(dst))
		a += len(src)
		// Fixed-size windows keep the decode free of per-element bounds
		// checks.
		for len(src) >= 16 && len(dst) >= 4 {
			s, d := src[:16:16], dst[:4:4]
			d[0] = le32f(s[0:4])
			d[1] = le32f(s[4:8])
			d[2] = le32f(s[8:12])
			d[3] = le32f(s[12:16])
			src, dst = src[16:], dst[4:]
		}
		for len(src) >= 4 && len(dst) >= 1 {
			dst[0] = le32f(src[:4])
			src, dst = src[4:], dst[1:]
		}
		if len(dst) > 0 && a%mem.PageSize != 0 {
			dst[0] = v.straddled(a)
			dst, a = dst[1:], a+4
		}
	}
}

// Dot returns the dot product of the len(x) float32s starting at offset off
// with x, decoded straight from the page bytes. It multiplies and adds in
// index order, so the result is bit-identical to F32Row into a scratch row
// followed by `dot += row[i] * x[i]` for i = 0, 1, ...
func (v *View) Dot(off int, x []float32) float32 {
	a := int(v.Base&0xFFF) + off
	var dot float32
	for len(x) > 0 {
		src := v.run(a, len(x))
		a += len(src)
		for len(src) >= 16 && len(x) >= 4 {
			s, xs := src[:16:16], x[:4:4]
			dot += le32f(s[0:4]) * xs[0]
			dot += le32f(s[4:8]) * xs[1]
			dot += le32f(s[8:12]) * xs[2]
			dot += le32f(s[12:16]) * xs[3]
			src, x = src[16:], x[4:]
		}
		for len(src) >= 4 && len(x) >= 1 {
			dot += le32f(src[:4]) * x[0]
			src, x = src[4:], x[1:]
		}
		if len(x) > 0 && a%mem.PageSize != 0 {
			dot += v.straddled(a) * x[0]
			x, a = x[1:], a+4
		}
	}
	return dot
}

// run returns the bytes of the whole float32s, at most n of them, that
// start at in-view address a and end inside a's page. Its length is a
// multiple of 4; it is empty when a float straddles the page boundary at a.
func (v *View) run(a, n int) []byte {
	o := a % mem.PageSize
	avail := (mem.PageSize - o) &^ 3
	if avail > 4*n {
		avail = 4 * n
	}
	return v.page(a / mem.PageSize)[o : o+avail]
}

// straddled decodes the float32 at in-view address a whose bytes span a
// page boundary.
func (v *View) straddled(a int) float32 {
	var b [4]byte
	for j := range b {
		aa := a + j
		b[j] = v.page(aa / mem.PageSize)[aa%mem.PageSize]
	}
	return le32f(b[:])
}

// le32f decodes the little-endian float32 in b[:4].
func le32f(b []byte) float32 {
	return f32frombits(binary.LittleEndian.Uint32(b))
}

// CopyOut copies n bytes at offset off into dst.
func (v *View) CopyOut(off int, dst []byte) {
	a := int(v.Base&0xFFF) + off
	di := 0
	for di < len(dst) {
		p, o := a/mem.PageSize, a%mem.PageSize
		n := copy(dst[di:], v.page(p)[o:])
		a += n
		di += n
	}
}

// CopyIn writes src at offset off (confined/writable views only).
func (v *View) CopyIn(off int, src []byte) {
	v.E.WriteMem(v.Base+paging.Addr(off), src)
	// Refresh cached slices lazily; WriteMem faulted pages in already.
}

func f32frombits(u uint32) float32 {
	return float32frombits(u)
}
