package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"lightvm"
)

// cell is one figure replayed at a fixed scale.
type cell struct {
	ID    string
	Scale float64
}

// key names the cell in the digest table and in reports.
func (c cell) key() string { return c.ID + "@" + strconv.FormatFloat(c.Scale, 'g', -1, 64) }

// workload is a fixed set of cells; one iteration replays each once,
// in order.
type workload struct {
	Name  string
	Cells []cell
}

// engineWorkers pins the sharded engine's worker count (ext-cluster);
// every other figure ignores it. Two workers is the box's core count,
// and any count renders the same table.
const engineWorkers = 2

// workloads are the benchmark's inputs. Each stresses a different part
// of the simulator, and for each layer at least one workload runs it
// hard and one barely touches it, so a change to that layer shows up on
// the first and must stay flat on the second (see README.md).
var workloads = []workload{
	// Per-request unikernel churn under open-loop traffic: store
	// transactions over never-reused VM names. No sharded engine.
	{Name: "serve-overload", Cells: []cell{
		{"ext-overload", 0.5}, {"ext-serve", 0.2},
	}},
	// A 210k-domain fleet on the sharded engine: per-domain mm and hv
	// allocation, GC pressure and peak RSS. Little store churn.
	{Name: "fleet-churn", Cells: []cell{
		{"ext-cluster", 0.2},
	}},
	// The store used another way: snapshot, serialize, deserialize and
	// graft over a fixed guest set, plus migration. No name churn, no
	// traffic, no engine.
	{Name: "store-checkpoint", Cells: []cell{
		{"fig12a", 1}, {"fig12b", 1}, {"fig13", 1}, {"ext-clone", 1}, {"ext-cxenstored", 1},
	}},
	// The paper's create/boot/destroy figures in every toolstack mode,
	// crash-journal scrub and the mutex cluster's failover. No traffic,
	// no sharded engine.
	{Name: "lifecycle-faults", Cells: []cell{
		{"fig04", 1}, {"fig05", 1}, {"fig09", 1}, {"fig10", 1}, {"fig11", 1},
		{"fig17", 1}, {"fig18", 1}, {"ext-throughput", 1}, {"ext-churn", 0.2},
		{"ext-faults", 1}, {"ext-gray", 1},
	}},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// digestFile is where -record writes the reference digests, relative
// to the repository root.
const digestFile = "bench/testdata/digests.json"

// digestTable maps a simulator seed to each cell's output digest
// (SHA-256 of the rendered table, hex).
type digestTable map[uint64]map[string]string

//go:embed testdata/digests.json
var digestJSON []byte

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestJSON, &t); err != nil {
		return nil, fmt.Errorf("parse %s: %w", digestFile, err)
	}
	if len(t) == 0 {
		return nil, fmt.Errorf("%s records no seeds", digestFile)
	}
	return t, nil
}

// seeds lists the recorded simulator seeds in ascending order.
func (t digestTable) seeds() []uint64 {
	out := make([]uint64, 0, len(t))
	for s := range t {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// simSeed maps the benchmark's -seed onto the recorded simulator
// seeds, so every run is checked against a reference: seed n runs the
// ((n-1) mod k)-th of the k recorded seeds, in ascending order.
func (t digestTable) simSeed(seed int64) uint64 {
	pool := t.seeds()
	k := int64(len(pool))
	return pool[((seed-1)%k+k)%k]
}

// cellRun is one cell's outcome within an iteration.
type cellRun struct {
	Key    string
	WallS  float64
	Output string // the rendered table
}

// digest is the hex SHA-256 of a cell's output.
func (r cellRun) digest() string {
	sum := sha256.Sum256([]byte(r.Output))
	return hex.EncodeToString(sum[:])
}

// runCells replays cells once, sequentially, and returns each cell's
// host time and output. Outputs are hashed later, off the clock.
func runCells(cells []cell, seed uint64) ([]cellRun, error) {
	out := make([]cellRun, 0, len(cells))
	for _, c := range cells {
		start := time.Now()
		res, err := lightvm.RunExperimentsOpts([]string{c.ID}, lightvm.ExperimentOptions{
			Scale: c.Scale, Seed: seed, Parallel: 1, Shards: engineWorkers,
		})
		wall := time.Since(start).Seconds()
		if err != nil {
			return out, fmt.Errorf("%s: %w", c.key(), err)
		}
		out = append(out, cellRun{Key: c.key(), WallS: wall, Output: res[0].Output})
	}
	return out, nil
}

// fsckTracked audits every environment built since tracking was
// switched on.
func fsckTracked() error {
	if envs, violations := lightvm.FsckTracked(); len(violations) > 0 {
		return fmt.Errorf("fsck: %d violations across %d environments, first: %v", len(violations), envs, violations[0])
	}
	return nil
}

// checkDigests reports the first cell whose digest differs from want.
func checkDigests(runs []cellRun, want map[string]string) error {
	for _, r := range runs {
		w, ok := want[r.Key]
		if !ok {
			return fmt.Errorf("%s: no recorded digest", r.Key)
		}
		if d := r.digest(); d != w {
			return fmt.Errorf("%s: output digest %.12s differs from recorded %.12s", r.Key, d, w)
		}
	}
	return nil
}

// record replays every workload once for each seed in the digest file
// and rewrites the file. It checks what a traced run checks: a cell
// that errors, or an environment left with a cross-layer violation,
// fails the recording. Only a change that means to move simulated
// output re-records; to add a seed, add it to the file with an empty
// table first.
func record() error {
	t, err := loadDigests()
	if err != nil {
		return err
	}
	for _, s := range t.seeds() {
		t[s] = map[string]string{}
		for _, w := range workloads {
			lightvm.SetEnvTracking(true)
			runs, err := runCells(w.Cells, s)
			if err == nil {
				err = fsckTracked()
			}
			lightvm.SetEnvTracking(false)
			if err != nil {
				return fmt.Errorf("record seed %d: %s: %w", s, w.Name, err)
			}
			for _, r := range runs {
				t[s][r.Key] = r.digest()
			}
		}
		fmt.Fprintf(os.Stderr, "recorded seed %d\n", s)
	}
	buf, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(buf, '\n'), 0o644)
}
