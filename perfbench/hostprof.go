package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// hostProfile accumulates the benchmark process's own CPU profile, charged
// per repo module: each sample goes to the innermost repo module on its
// stack, so stdlib frames (crypto, memmove, the allocator) count against the
// module that called them. The program itself carries no host-side tracing.
type hostProfile struct {
	buf bytes.Buffer
	ms  map[string]float64
}

func newHostProfile() *hostProfile {
	return &hostProfile{ms: make(map[string]float64)}
}

// profiled runs fn under the Go CPU profiler and charges its samples.
func (h *hostProfile) profiled(fn func()) error {
	h.buf.Reset()
	if err := pprof.StartCPUProfile(&h.buf); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return h.charge(h.buf.Bytes())
}

const repoInternal = "github.com/asterisc-release/erebor-go/internal/"

// moduleOf names the repo module a function belongs to ("" for stdlib and
// runtime frames). The monitor's audit sweep and watchdog are reported as
// their own "audit" module alongside internal/audit.
func moduleOf(fn, file string) string {
	i := strings.Index(fn, repoInternal)
	if i < 0 {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		return ""
	}
	rest := fn[i+len(repoInternal):]
	if j := strings.IndexAny(rest, "./"); j >= 0 {
		rest = rest[:j]
	}
	switch rest {
	case "monitor":
		if strings.HasSuffix(file, "/audit.go") || strings.HasSuffix(file, "/watchdog.go") {
			return "audit"
		}
	case "workloads":
		return rest
	}
	for _, m := range hostModules {
		if m == rest {
			return m
		}
	}
	return "other"
}

// charge decodes one gzipped pprof CPU profile and adds its CPU time to the
// per-module totals.
func (h *hostProfile) charge(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	// Resolve each location to the module of its innermost repo frame
	// (a location lists inlined frames innermost first).
	locMod := make(map[uint64]string, len(p.locs))
	for id, fids := range p.locs {
		for _, fid := range fids {
			f := p.funcs[fid]
			if m := moduleOf(p.str(f.name), p.str(f.file)); m != "" && m != "bench" {
				locMod[id] = m
				break
			}
		}
	}
	benchLoc := func(id uint64) bool {
		for _, fid := range p.locs[id] {
			if moduleOf(p.str(p.funcs[fid].name), "") == "bench" {
				return true
			}
		}
		return false
	}
	for _, s := range p.samples {
		mod := "runtime"
		for _, id := range s.locs {
			if m := locMod[id]; m != "" {
				mod = m
				break
			}
		}
		if mod == "runtime" {
			for _, id := range s.locs {
				if benchLoc(id) {
					mod = "bench"
					break
				}
			}
		}
		h.ms[mod] += float64(s.nanos) / 1e6
	}
	return nil
}

// profile is the subset of profile.proto a CPU profile needs.
type profile struct {
	strs    []string
	funcs   map[uint64]pfunc
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	samples []psample
	cpuIdx  int // index of the cpu/nanoseconds value
}

type pfunc struct{ name, file int64 }

type psample struct {
	locs  []uint64
	nanos int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// pbuf walks one protobuf message.
type pbuf struct {
	b []byte
}

var errProto = errors.New("malformed protobuf")

func (r *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (r *pbuf) next() (field int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		n, err = r.varint()
		if err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, errProto
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[4:]
	default:
		err = errProto
	}
	return field, wire, v, payload, err
}

// repeated appends the values of a repeated scalar field, packed or not.
func repeated(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbuf{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{funcs: make(map[uint64]pfunc), locs: make(map[uint64][]uint64), cpuIdx: -1}
	var sampleTypes [][]byte
	var rawSamples [][]byte
	r := pbuf{raw}
	for len(r.b) > 0 {
		field, wire, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 1: // sample_type
			sampleTypes = append(sampleTypes, payload)
		case 2: // sample
			rawSamples = append(rawSamples, payload)
		case 4: // location
			if err := p.decodeLocation(payload); err != nil {
				return nil, err
			}
		case 5: // function
			if err := p.decodeFunction(payload); err != nil {
				return nil, err
			}
		case 6: // string_table
			if wire == 2 {
				p.strs = append(p.strs, string(payload))
			}
		}
	}
	for i, st := range sampleTypes {
		m := pbuf{st}
		for len(m.b) > 0 {
			field, _, v, _, err := m.next()
			if err != nil {
				return nil, err
			}
			if field == 2 && p.str(int64(v)) == "nanoseconds" { // unit
				p.cpuIdx = i
			}
		}
	}
	if p.cpuIdx < 0 {
		return nil, errors.New("no cpu/nanoseconds sample type")
	}
	for _, raw := range rawSamples {
		m := pbuf{raw}
		var s psample
		var vals []uint64
		for len(m.b) > 0 {
			field, wire, v, payload, err := m.next()
			if err != nil {
				return nil, err
			}
			switch field {
			case 1:
				s.locs, err = repeated(s.locs, wire, v, payload)
			case 2:
				vals, err = repeated(vals, wire, v, payload)
			}
			if err != nil {
				return nil, err
			}
		}
		if p.cpuIdx < len(vals) {
			s.nanos = int64(vals[p.cpuIdx])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

func (p *profile) decodeLocation(b []byte) error {
	m := pbuf{b}
	var id uint64
	var fids []uint64
	for len(m.b) > 0 {
		field, _, v, payload, err := m.next()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			id = v
		case 4: // line
			l := pbuf{payload}
			for len(l.b) > 0 {
				lf, _, lv, _, err := l.next()
				if err != nil {
					return err
				}
				if lf == 1 {
					fids = append(fids, lv)
				}
			}
		}
	}
	p.locs[id] = fids
	return nil
}

func (p *profile) decodeFunction(b []byte) error {
	m := pbuf{b}
	var id uint64
	var f pfunc
	for len(m.b) > 0 {
		field, _, v, _, err := m.next()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			id = v
		case 2:
			f.name = int64(v)
		case 4:
			f.file = int64(v)
		}
	}
	p.funcs[id] = f
	return nil
}
