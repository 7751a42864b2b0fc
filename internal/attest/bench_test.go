package attest

import (
	"testing"

	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// Sinks keep the measured calls from being optimized away.
var (
	quoteSink  *Quote
	reportSink *tdx.Report
)

// BenchmarkQuoteSign is the monitor-side cost of one quote: the
// deterministic P-384 signature over a TDREPORT.
func BenchmarkQuoteSign(b *testing.B) {
	qk, _, q := quotedReport(b)
	r := &q.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if quoteSink, err = qk.Sign(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuoteVerify is the client-side cost of one quote: the P-384
// signature check plus the MRTD comparison.
func BenchmarkQuoteVerify(b *testing.B) {
	qk, mod, q := quotedReport(b)
	mrtd := mod.MRTD()
	pub := qk.Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if reportSink, err = Verify(pub, q, &mrtd); err != nil {
			b.Fatal(err)
		}
	}
}
