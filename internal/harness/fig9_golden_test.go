package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/workloads"
	"github.com/asterisc-release/erebor-go/internal/workloads/graph"
	"github.com/asterisc-release/erebor-go/internal/workloads/ids"
	"github.com/asterisc-release/erebor-go/internal/workloads/imgproc"
	"github.com/asterisc-release/erebor-go/internal/workloads/llm"
	"github.com/asterisc-release/erebor-go/internal/workloads/retrieval"
)

// fig9GoldenDigest is the SHA-256 of the 15 Fig 9 scenario signatures (five
// programs at scale 1, each native / LibOS-only / Erebor, default options).
// A host-side optimization of the workload kernels must leave it unchanged:
// the kernels charge their cycles analytically, so only a change in what the
// programs compute (or in the modeled system) may move it.
const fig9GoldenDigest = "68eb916dd70a816888c2a3c1b0c3828bf5f710b831ec36bf9467e4d59b4ffee8"

// fig9Signature renders everything the modeled system decided in one run, in
// the same fields the perfbench determinism check compares.
func fig9Signature(r *ScenarioResult) string {
	return fmt.Sprintf("%s/%s init=%d run=%d pf=%d tt=%d ve=%d exits=%d emcs=%d emc=%d out=%q\n",
		r.Workload, r.Config, r.InitCycles, r.RunCycles, r.PageFaults, r.TimerTicks,
		r.VEExits, r.SandboxExits, r.EMCs, r.EMCCycles, r.Output)
}

func TestFig9GoldenSignatures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 15 Fig 9 scenarios")
	}
	suite := []workloads.Workload{
		llm.New(1), imgproc.New(1), retrieval.New(1), graph.New(1), ids.New(1),
	}
	var b strings.Builder
	for _, wl := range suite {
		for _, cfg := range AllConfigs {
			r, err := RunScenario(wl, cfg, DefaultScenarioOptions())
			if err != nil {
				t.Fatalf("%s/%s: %v", wl.Name(), cfg, err)
			}
			b.WriteString(fig9Signature(r))
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != fig9GoldenDigest {
		t.Fatalf("Fig 9 signature digest %s, want %s; signatures:\n%s", got, fig9GoldenDigest, b.String())
	}
}
