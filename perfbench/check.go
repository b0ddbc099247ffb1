package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/core"
)

// fingerprint pins one workload and seed: the sha256 of the engine's
// report (aggregate plus per-node lines for clusters) and of the
// deterministic per-layer counts of the traced run.
type fingerprint struct {
	Report string `json:"report_sha256"`
	Layers string `json:"layers_sha256"`
}

// fingerprintFile maps workload → seed → fingerprint.
type fingerprintFile map[string]map[string]fingerprint

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func loadFingerprints(path string) (fingerprintFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f fingerprintFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// expected returns the committed fingerprint for the workload and seed, if
// there is one.
func (f fingerprintFile) expected(workload string, seed int64) (fingerprint, bool) {
	fp, ok := f[workload][strconv.FormatInt(seed, 10)]
	return fp, ok
}

// record stores a fingerprint and rewrites the file.
func (f fingerprintFile) record(path, workload string, seed int64, fp fingerprint) error {
	if f[workload] == nil {
		f[workload] = map[string]fingerprint{}
	}
	f[workload][strconv.FormatInt(seed, 10)] = fp
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkLaws verifies, from outside the engine, relations every result
// must satisfy whatever the code inside does.
func checkLaws(out *outcome) error {
	var errs []error
	check := func(who string, r *core.Result) {
		if want := r.Throughput * out.measureMS / 1000; !near(want, float64(r.Commits)) {
			errs = append(errs, fmt.Errorf("%s: throughput %v × window %v ms = %v, commits %d",
				who, r.Throughput, out.measureMS, want, r.Commits))
		}
		if r.MMHitPct < 0 || r.MMHitPct > 100 || r.NVEMAddHitPct < 0 || r.NVEMAddHitPct > 100 {
			errs = append(errs, fmt.Errorf("%s: hit ratios %v%% MM, %v%% NVEM outside [0, 100]",
				who, r.MMHitPct, r.NVEMAddHitPct))
		}
		if r.MMHitPct+r.NVEMAddHitPct > 100+1e-9 {
			errs = append(errs, fmt.Errorf("%s: MM %v%% + NVEM %v%% hit ratios exceed 100%%",
				who, r.MMHitPct, r.NVEMAddHitPct))
		}
		if r.Commits <= 0 {
			errs = append(errs, fmt.Errorf("%s: no commits", who))
		}
	}
	check("aggregate", out.agg)
	if out.nodes != nil {
		var sum int64
		for i, n := range out.nodes {
			check(fmt.Sprintf("node %d", i), n)
			sum += n.Commits
		}
		if sum != out.agg.Commits {
			errs = append(errs, fmt.Errorf("aggregate commits %d, per-node sum %d", out.agg.Commits, sum))
		}
	}
	return errors.Join(errs...)
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}
