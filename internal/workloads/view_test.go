package workloads

import (
	"fmt"
	"math"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// testView returns a view over seeded float32s whose page cache is
// pre-filled, so it needs no kernel. Base sits lo bytes into its page; with
// lo%4 != 0 every float that reaches a page boundary straddles it.
func testView(r *Rng, pages, lo int) *View {
	base := paging.Addr(0x40000 + lo)
	v := NewView(nil, base, pages*mem.PageSize-lo)
	vals := make([]float32, v.Size/4)
	for i := range vals {
		vals[i] = r.Normal(1)
	}
	flat := make([]byte, len(v.pages)*mem.PageSize)
	copy(flat[lo:], F32Bytes(vals))
	for i := range v.pages {
		v.pages[i] = flat[i*mem.PageSize : (i+1)*mem.PageSize]
	}
	return v
}

func TestViewRowAndDotMatchPerElement(t *testing.T) {
	r := NewRng(15)
	for _, lo := range []int{0xFF4, 0xFF5, 0xFF6, 0xFF7} {
		v := testView(r, 4, lo)
		for _, n := range []int{1, 2, 3, 4, 5, 7, 32, 128, 384, 1100} {
			x := make([]float32, n)
			for i := range x {
				x[i] = r.Normal(1)
			}
			row := make([]float32, n)
			for off := 0; off+4*n <= v.Size; off += 4 * 3 {
				v.F32Row(off, row)
				var want float32
				for i := range row {
					f := v.F32(off + 4*i)
					if math.Float32bits(row[i]) != math.Float32bits(f) {
						t.Fatalf("lo=%#x n=%d off=%d: F32Row[%d] = %x, F32 %x", lo, n, off, i,
							math.Float32bits(row[i]), math.Float32bits(f))
					}
					want += f * x[i]
				}
				if got := v.Dot(off, x); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("lo=%#x n=%d off=%d: Dot = %x, per-element %x", lo, n, off,
						math.Float32bits(got), math.Float32bits(want))
				}
			}
		}
	}
}

func BenchmarkViewDot(b *testing.B) {
	r := NewRng(1)
	v := testView(r, 4, 0xFF6)
	for _, n := range []int{128, 1024} {
		x := make([]float32, n)
		for i := range x {
			x[i] = r.Normal(1)
		}
		row := make([]float32, n)
		var sink float32
		b.Run(fmt.Sprintf("%d/row+dot", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.F32Row(0, row)
				var dot float32
				for j := range row {
					dot += row[j] * x[j]
				}
				sink += dot
			}
		})
		b.Run(fmt.Sprintf("%d/dot", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += v.Dot(0, x)
			}
		})
		b.Run(fmt.Sprintf("%d/row", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.F32Row(0, row)
			}
		})
		b.Run(fmt.Sprintf("%d/per-element", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range row {
					row[j] = v.F32(4 * j)
				}
			}
		})
		_ = sink
	}
}
