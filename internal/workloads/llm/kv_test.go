package llm

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/harness"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/workloads"
)

// TestKVCacheHoldsProjections runs one token natively and checks the
// layer-0, position-0 K entry of the cache against WK·xb computed here
// straight from the BuildModel bytes.
func TestKVCacheHoldsProjections(t *testing.T) {
	wl := New(1)
	wl.Prompt, wl.GenTokens = "T", 0
	common := wl.CommonData()
	w, err := harness.NewWorld(harness.WorldConfig{Mode: kernel.ModeNative, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	kEntry := make([]byte, Dim*4)
	tk, err := w.K.Spawn("llm", mem.OwnerTaskBase+1, func(e *kernel.Env) {
		modelVA := e.Mmap(len(common), true, false)
		e.WriteMem(modelVA, common)
		var kvVA paging.Addr
		wl.Run(&workloads.Ctx{
			E: e, CommonVA: modelVA, Input: wl.Input(),
			Alloc: func(n int) paging.Addr {
				va := e.Mmap(n, true, false)
				if kvVA == 0 {
					kvVA = va // Run allocates the KV cache first
				}
				return va
			},
		})
		e.ReadMem(kvVA, kEntry) // [layer 0][pos 0][k]
	})
	if err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	if tk.ExitReason != "" {
		t.Fatalf("run failed: %s", tk.ExitReason)
	}

	m := wl.Model
	f := func(i int) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(common[4*i:])) }
	x := make([]float32, Dim)
	norm := make([]float32, Dim)
	for i := range x {
		x[i] = f(m.tokEmb()+int('T')*Dim+i) + f(m.posEmb()+i)
		norm[i] = f(m.layerBase(0) + offAttnNorm + i)
	}
	xb := make([]float32, Dim)
	rmsnorm(xb, x, norm)
	for r := 0; r < Dim; r++ {
		var want float32
		for i := 0; i < Dim; i++ {
			want += f(m.layerBase(0)+offWK+r*Dim+i) * xb[i]
		}
		got := math.Float32frombits(binary.LittleEndian.Uint32(kEntry[4*r:]))
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("K[0][0][%d] = %v, want WK·xb = %v", r, got, want)
		}
	}
}
