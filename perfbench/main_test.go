package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sirius/internal/telemetry"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at the tiny size and decodes the last line;
// it also returns the report line and standard error.
func runTiny(t *testing.T, args ...string) (r result, report, stderrText string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-seed", "7", "-seconds", "0.05", "-size", "tiny"}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if len(keys) != 4 {
		t.Errorf("last line has keys %v, want correct/attempted/failed/metrics", keys)
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatal(err)
	}
	return r, lines[0], stderr.String()
}

// TestEveryWorkloadPrintsItsMetrics runs each workload of BENCHMARK.json
// untraced and traced, and checks that every listed metric is printed
// with its unit, that the outputs pass their checks, and that the trace
// file is a valid Chrome trace.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r, _, stderr := runTiny(t, "-workload", w.Name, "-trace", "0")
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("untraced: correct %v, %d of %d failed: %s", r.Correct, r.Failed, r.Attempted, stderr)
			}
			if len(r.Metrics) != len(s.EndToEnd) {
				t.Errorf("untraced run printed %d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(s.EndToEnd))
			}
			for _, m := range s.EndToEnd {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}

			traceOut := filepath.Join(t.TempDir(), "trace.json")
			r, _, stderr = runTiny(t, "-workload", w.Name, "-trace", "1", "-trace-out", traceOut)
			if !r.Correct || r.Failed != 0 {
				t.Errorf("traced: correct %v, %d of %d failed: %s", r.Correct, r.Failed, r.Attempted, stderr)
			}
			if len(r.Metrics) != len(s.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(s.PerLayer))
			}
			for _, m := range s.PerLayer {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			data, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := telemetry.ValidateTrace(data); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestWrongReferenceFails checks the checker: a recorded digest that
// does not match the simulated statistics must be reported as failed
// ops, and the matching one must not.
func TestWrongReferenceFails(t *testing.T) {
	refs := filepath.Join(t.TempDir(), "references.json")
	record := func(digest string) {
		data, err := json.Marshal(map[string]string{"fig9-small/tiny/7": digest})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(refs, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	record(strings.Repeat("0", 32))
	r, report, _ := runTiny(t, "-workload", "fig9-small", "-refs", refs)
	if r.Correct || r.Failed == 0 {
		t.Errorf("wrong reference: correct %v with %d failed ops, want failures", r.Correct, r.Failed)
	}

	var rep struct{ Digest string }
	if err := json.Unmarshal([]byte(report), &rep); err != nil {
		t.Fatal(err)
	}
	record(rep.Digest)
	r, _, stderr := runTiny(t, "-workload", "fig9-small", "-refs", refs)
	if !r.Correct || r.Failed != 0 {
		t.Errorf("matching reference %s: correct %v with %d failed ops: %s", rep.Digest, r.Correct, r.Failed, stderr)
	}
}

// TestScale checks the scaling to the reference speed: a time measured
// at the reference speed stays as it is, and one measured while the
// kernel ran at half speed counts half.
func TestScale(t *testing.T) {
	d := 300 * time.Millisecond
	if got := scale(d, refCalibration, refCalibration); math.Abs(got-d.Seconds()) > 1e-12 {
		t.Errorf("at the reference speed: %v scaled to %v s", d, got)
	}
	if got := scale(d, 2*refCalibration, 2*refCalibration); math.Abs(got-d.Seconds()/2) > 1e-12 {
		t.Errorf("at half speed: %v scaled to %v s, want %v s", d, got, d.Seconds()/2)
	}
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	if k := c.run(); k <= 0 {
		t.Errorf("kernel took %v", k)
	}
}
