package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate the example report goldens")

// TestExampleReportsGolden runs every -example* template through the real
// CLI path (run -config) and locks the full report to a byte-exact golden
// under testdata/golden/. The templates are the JSON vocabulary's spec: a
// change to how a key decodes that alters even one report byte fails here.
//
// Regenerate with:
//
//	go test ./cmd/tpsim -run TestExampleReportsGolden -update
func TestExampleReportsGolden(t *testing.T) {
	templates := map[string]string{
		"example":            exampleConfig,
		"example-cluster":    exampleClusterConfig,
		"example-workload":   exampleWorkloadConfig,
		"example-closedloop": exampleClosedLoopConfig,
		"example-skew":       exampleSkewConfig,
	}
	for name, body := range templates {
		t.Run(name, func(t *testing.T) {
			code, out, stderr := runCmd(t, "-config", writeConfig(t, body))
			if code != 0 {
				t.Fatalf("code=%d stderr=%s", code, stderr)
			}
			path := filepath.Join("testdata", "golden", name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if out != string(want) {
				t.Fatalf("report differs from %s:\n--- got ---\n%s--- want ---\n%s", path, out, want)
			}
		})
	}
}
