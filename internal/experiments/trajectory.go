package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"encoding/json"
)

// SnapshotSchema identifies the BENCH_*.json wire format.
const SnapshotSchema = "mpcgs-paperbench/v1"

// BenchSnapshot is one committed paperbench run: the machine-readable
// BENCH_<pr>.json snapshot written by `paperbench -json`, one per PR,
// forming the repository's performance trajectory. Fields mirror what
// the tables print; Speedups is keyed by experiment name.
type BenchSnapshot struct {
	Schema      string                    `json:"schema"`
	GeneratedAt string                    `json:"generated_at"`
	Scale       string                    `json:"scale"`
	Workers     int                       `json:"workers"` // effective device parallelism of the run
	GOMAXPROCS  int                       `json:"gomaxprocs"`
	Seed        uint64                    `json:"seed"` // 0 = default
	Experiments []string                  `json:"experiments"`
	Speedups    map[string][]SpeedupPoint `json:"speedups"`
	// KernelTier is the instruction set felsen's pattern kernels ran at
	// (felsen.KernelTier). Snapshots written before it was recorded
	// leave it empty.
	KernelTier string `json:"kernel_tier,omitempty"`

	// PR and File identify where the snapshot came from; they are
	// derived from the filename by LoadSnapshots, not stored in it.
	PR   int    `json:"-"`
	File string `json:"-"`
}

// Write marshals the snapshot to path (indented, trailing newline).
func (s *BenchSnapshot) Write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// snapshotName extracts the PR number from a BENCH_<pr>.json basename.
var snapshotName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// ParseSnapshot reads and validates one snapshot file.
func ParseSnapshot(path string) (*BenchSnapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap BenchSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if snap.Schema != SnapshotSchema {
		return nil, fmt.Errorf("%s: schema %q not supported (want %q)", path, snap.Schema, SnapshotSchema)
	}
	snap.File = filepath.Base(path)
	if m := snapshotName.FindStringSubmatch(snap.File); m != nil {
		snap.PR, _ = strconv.Atoi(m[1])
	}
	return &snap, nil
}

// LoadSnapshots reads every BENCH_<pr>.json under dir, in PR order
// (numeric, so BENCH_10 sorts after BENCH_3). No snapshots is not an
// error — the caller decides whether an empty trajectory is fatal.
func LoadSnapshots(dir string) ([]*BenchSnapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []*BenchSnapshot
	for _, e := range entries {
		if e.IsDir() || !snapshotName.MatchString(e.Name()) {
			continue
		}
		snap, err := ParseSnapshot(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, snap)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].PR < snaps[j].PR })
	return snaps, nil
}

// FormatTrajectory renders the per-experiment speedup trajectory across
// the loaded snapshots: one table per experiment, swept parameter down,
// one column per PR.
func FormatTrajectory(w io.Writer, snaps []*BenchSnapshot) {
	if len(snaps) == 0 {
		fmt.Fprintln(w, "trajectory: no BENCH_*.json snapshots found")
		return
	}
	// Union of experiment names, sorted for stable output.
	expSet := map[string]bool{}
	for _, s := range snaps {
		for name := range s.Speedups {
			expSet[name] = true
		}
	}
	experiments := make([]string, 0, len(expSet))
	for name := range expSet {
		experiments = append(experiments, name)
	}
	sort.Strings(experiments)

	for _, exp := range experiments {
		fmt.Fprintf(w, "=== trajectory: %s speedup by PR ===\n", exp)
		// Union of swept parameter values.
		paramSet := map[int]bool{}
		for _, s := range snaps {
			for _, p := range s.Speedups[exp] {
				paramSet[p.Param] = true
			}
		}
		params := make([]int, 0, len(paramSet))
		for p := range paramSet {
			params = append(params, p)
		}
		sort.Ints(params)

		fmt.Fprintf(w, "%-10s", "param")
		for _, s := range snaps {
			fmt.Fprintf(w, " %-10s", fmt.Sprintf("PR%d", s.PR))
		}
		fmt.Fprintln(w)
		for _, param := range params {
			fmt.Fprintf(w, "%-10d", param)
			for _, s := range snaps {
				cell := "-"
				for _, p := range s.Speedups[exp] {
					if p.Param == param {
						cell = fmt.Sprintf("%.2f", p.Speedup)
						break
					}
				}
				fmt.Fprintf(w, " %-10s", cell)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// TrajectoryViolation is one (experiment, param) point whose fresh
// speedup regressed below the committed floor.
type TrajectoryViolation struct {
	Experiment string
	Param      int
	Fresh      float64
	Committed  float64
	Floor      float64
}

func (v TrajectoryViolation) String() string {
	return fmt.Sprintf("%s param %d: fresh speedup %.2f below floor %.2f (committed %.2f)",
		v.Experiment, v.Param, v.Fresh, v.Floor, v.Committed)
}

// CompareSnapshot checks freshly measured speedups against the latest
// committed snapshot: a point regresses when fresh < committed × factor.
// Only (experiment, param) pairs present on both sides are checked;
// checked reports how many were. The caller must treat checked == 0 as
// a failure — a comparison that compared nothing guards nothing.
func CompareSnapshot(measured map[string][]SpeedupPoint, latest *BenchSnapshot, factor float64) (checked int, violations []TrajectoryViolation) {
	exps := make([]string, 0, len(measured))
	for name := range measured {
		exps = append(exps, name)
	}
	sort.Strings(exps)
	for _, exp := range exps {
		committed := latest.Speedups[exp]
		if len(committed) == 0 {
			continue
		}
		byParam := make(map[int]float64, len(committed))
		for _, p := range committed {
			byParam[p.Param] = p.Speedup
		}
		for _, p := range measured[exp] {
			base, ok := byParam[p.Param]
			if !ok {
				continue
			}
			checked++
			if floor := base * factor; p.Speedup < floor {
				violations = append(violations, TrajectoryViolation{
					Experiment: exp,
					Param:      p.Param,
					Fresh:      p.Speedup,
					Committed:  base,
					Floor:      floor,
				})
			}
		}
	}
	return checked, violations
}
