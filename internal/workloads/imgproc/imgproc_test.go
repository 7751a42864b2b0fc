package imgproc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/workloads"
)

func TestBuildImagesFormat(t *testing.T) {
	imgs := BuildImages(3, 9)
	if len(imgs) != 4+3*ImgW*ImgH {
		t.Fatalf("size %d", len(imgs))
	}
	if binary.LittleEndian.Uint32(imgs) != 3 {
		t.Fatal("count header")
	}
	if !bytes.Equal(imgs, BuildImages(3, 9)) {
		t.Fatal("not deterministic")
	}
	// Images contain bright blobs (some pixels >= 200).
	bright := 0
	for _, b := range imgs[4:] {
		if b >= 200 {
			bright++
		}
	}
	if bright == 0 {
		t.Fatal("no blobs generated")
	}
}

func TestModelLayoutCoversParams(t *testing.T) {
	if offConv2() <= offConv1() || offHead() <= offConv2() || offFC() <= offHead() {
		t.Fatal("offsets not monotone")
	}
	if NumFloats() != offFC()+FCIn*FCOut {
		t.Fatal("NumFloats wrong")
	}
	m := BuildModel(3)
	if len(m) != 4*NumFloats() {
		t.Fatalf("model bytes %d", len(m))
	}
}

func TestConvolveIdentityKernel(t *testing.T) {
	w, h := 8, 8
	src := make([]float32, w*h)
	for i := range src {
		src[i] = float32(i)
	}
	// Identity kernel: center 1.
	k := []float32{0, 0, 0, 0, 1, 0, 0, 0, 0}
	dst := make([]float32, w*h)
	convolveInto(src, w, h, k, dst, false)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("identity convolution changed pixel %d", i)
		}
	}
	// The acc mode accumulates.
	convolveInto(src, w, h, k, dst, true)
	if dst[10] != 2*src[10] {
		t.Fatal("convolveInto(acc) did not accumulate")
	}
}

func TestMaxpool(t *testing.T) {
	src := []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	dst := make([]float32, 4)
	maxpool(src, 4, 4, dst)
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("pool[%d] = %f, want %f", i, dst[i], want[i])
		}
	}
}

func TestRelu(t *testing.T) {
	x := []float32{-1, 0, 2, -3.5}
	relu(x)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("relu[%d] = %f", i, x[i])
		}
	}
}

func TestSigmoidRange(t *testing.T) {
	for _, v := range []float32{-100, -1, 0, 1, 100} {
		s := sigmoid(v)
		if s < 0 || s > 1 {
			t.Fatalf("sigmoid(%f) = %f", v, s)
		}
	}
	if sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) != 0.5")
	}
}

func TestScoreAndNMSSuppressesNeighbors(t *testing.T) {
	// A head that scores every cell identically high should yield few
	// detections thanks to NMS suppression (3x3 neighborhoods).
	feat := make([]float32, C2*(ImgW/4)*(ImgH/4))
	for i := range feat {
		feat[i] = 1
	}
	head := make([]float32, Cells*Cells*HeadIn)
	for i := range head {
		head[i] = 1
	}
	dets := scoreAndNMS(feat, head)
	if dets == 0 {
		t.Fatal("no detections despite saturated scores")
	}
	if dets > Cells*Cells/4 {
		t.Fatalf("NMS failed to suppress: %d detections", dets)
	}
}

// convolveRef is the plain same-padded 3x3 triple loop convolveInto must
// reproduce bit for bit.
func convolveRef(src []float32, w, h int, k []float32, dst []float32, acc bool) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var s float32
			for ky := 0; ky < K; ky++ {
				for kx := 0; kx < K; kx++ {
					sy, sx := y+ky-1, x+kx-1
					if sy >= 0 && sy < h && sx >= 0 && sx < w {
						s += src[sy*w+sx] * k[ky*K+kx]
					}
				}
			}
			if acc {
				dst[y*w+x] += s
			} else {
				dst[y*w+x] = s
			}
		}
	}
}

func randFloats(r *workloads.Rng, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = r.Normal(1)
	}
	return out
}

func TestConvolveIntoMatchesReference(t *testing.T) {
	type size struct{ w, h int }
	var sizes []size
	for _, w := range []int{1, 2, 3, 5} {
		for _, h := range []int{1, 2, 3, 7} {
			sizes = append(sizes, size{w, h})
		}
	}
	sizes = append(sizes, size{64, 64}, size{32, 32})
	r := workloads.NewRng(15)
	for _, sz := range sizes {
		for _, acc := range []bool{false, true} {
			src := randFloats(r, sz.w*sz.h)
			k := randFloats(r, K*K)
			init := randFloats(r, sz.w*sz.h)
			got := append([]float32(nil), init...)
			want := append([]float32(nil), init...)
			convolveInto(src, sz.w, sz.h, k, got, acc)
			convolveRef(src, sz.w, sz.h, k, want, acc)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%dx%d acc=%v pixel %d: %x, reference %x", sz.w, sz.h, acc, i,
						math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

func BenchmarkConvolve(b *testing.B) {
	for _, n := range []int{32, 64} {
		r := workloads.NewRng(1)
		src, k, dst := randFloats(r, n*n), randFloats(r, K*K), make([]float32, n*n)
		b.Run(fmt.Sprintf("%dx%d/reference", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				convolveRef(src, n, n, k, dst, true)
			}
		})
		b.Run(fmt.Sprintf("%dx%d/fast", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				convolveInto(src, n, n, k, dst, true)
			}
		})
	}
}
