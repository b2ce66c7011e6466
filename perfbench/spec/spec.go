// Package spec holds what the benchmark's end-to-end runs and its traced
// run share: how a benchmark seed maps to program inputs, the workload
// lists, the service request mix, and the pinned output digests.
//
// It imports nothing from the program under test, so the end-to-end path
// keeps working whatever a change does to the program's internal packages.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
)

// Pool is the set of randomization seeds the benchmark feeds the program.
// A benchmark seed selects one of them, so every seed gives inputs whose
// outputs have a pinned digest.
var Pool = []int64{42, 43, 44, 45}

// PoolSeed maps a benchmark seed to its program seed.
func PoolSeed(seed int64) int64 {
	n := int64(len(Pool))
	return Pool[((seed%n)+n)%n]
}

// SweepScale is the sweep workload's iteration scale: large enough that
// simulation, not workload build and rewrite, dominates its time.
const SweepScale = 4

// SweepWorkloads are the 11 SPEC analogs plus the three lifted ELF
// fixtures, so lifted code runs beside synthetic code.
var SweepWorkloads = []string{
	"bzip2", "gcc", "h264ref", "hmmer", "lbm", "libquantum",
	"mcf", "namd", "sjeng", "soplex", "xalan",
	"elf-dispatch", "elf-crc32", "elf-fib",
}

// Campaigns are the canonical campaign modes of `experiments -mode`, each
// pinned to its golden envelope.
var Campaigns = []string{"faults", "attacks", "multicore"}

// Job is one service request: the body of POST /v1/jobs.
type Job struct {
	Kind         string   `json:"kind"`
	Workload     string   `json:"workload,omitempty"`
	Workloads    []string `json:"workloads,omitempty"`
	Mode         string   `json:"mode,omitempty"`
	Seed         int64    `json:"seed"`
	Instructions uint64   `json:"instructions,omitempty"`
	Injections   int      `json:"injections,omitempty"`
	MaxLeaks     int      `json:"max_leaks,omitempty"`
	AdvanceInsts uint64   `json:"advance_insts,omitempty"`
}

// Name identifies the request template ("run/bzip2"); its result envelope
// is pinned under this name.
func (j Job) Name() string {
	if j.Workload != "" {
		return j.Kind + "/" + j.Workload
	}
	return j.Kind + "/" + j.Workloads[0]
}

// Mix is the service's request mix at one program seed: the load
// generator's run=8,sweep=1,faults=1,attacks=1 schedule of tiny jobs, with
// workloads rotating over bzip2, sjeng and xalan.
func Mix(seed int64) []Job {
	names := []string{"bzip2", "sjeng", "xalan"}
	var jobs []Job
	for i := 0; i < 11; i++ {
		w := names[i%len(names)]
		switch {
		case i < 8:
			jobs = append(jobs, Job{Kind: "run", Workload: w, Mode: "vcfr", Seed: seed, Instructions: 2000})
		case i == 8:
			jobs = append(jobs, Job{Kind: "sweep", Workloads: []string{w}, Seed: seed, Instructions: 2000})
		case i == 9:
			jobs = append(jobs, Job{Kind: "faults", Workloads: []string{w}, Seed: seed, Injections: 2, Instructions: 2000})
		default:
			jobs = append(jobs, Job{Kind: "attacks", Workloads: []string{w}, Seed: seed, MaxLeaks: 4, AdvanceInsts: 500, Instructions: 2000})
		}
	}
	return jobs
}

// Templates returns the distinct templates of a mix, in first-use order.
func Templates(mix []Job) []Job {
	seen := map[string]bool{}
	var out []Job
	for _, j := range mix {
		if !seen[j.Name()] {
			seen[j.Name()] = true
			out = append(out, j)
		}
	}
	return out
}

// Schedule is the order in which clients take requests: rounds of the mix,
// each round shuffled by the benchmark seed.
func Schedule(seed int64, rounds int) []Job {
	mix := Mix(PoolSeed(seed))
	rng := rand.New(rand.NewSource(seed))
	out := make([]Job, 0, rounds*len(mix))
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(mix)) {
			out = append(out, mix[i])
		}
	}
	return out
}

// Digests are the SHA-256 digests of the program's outputs, pinned from a
// commit whose outputs were checked against the golden files.
type Digests struct {
	// Sweep: program seed -> digest of the stats-json sweep envelope.
	Sweep map[string]string `json:"sweep"`
	// Tables: program seed -> digest of `experiments -experiment all`
	// stdout with the elapsed-time suffixes removed.
	Tables map[string]string `json:"tables"`
	// Campaigns: campaign mode -> digest of its golden envelope.
	Campaigns map[string]string `json:"campaigns"`
	// Service: program seed -> template name -> digest of the job's result
	// envelope.
	Service map[string]map[string]string `json:"service"`
}

// LoadDigests reads the pinned digests.
func LoadDigests(path string) (*Digests, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading digests: %w", err)
	}
	var d Digests
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

// Sum is the hex SHA-256 of b.
func Sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// Key is the digest-map key of a program seed.
func Key(seed int64) string { return strconv.FormatInt(seed, 10) }

// Check compares b against its pinned digest; a missing pin is a mismatch.
func Check(what string, b []byte, want string) error {
	if want == "" {
		return fmt.Errorf("%s: no pinned digest", what)
	}
	if got := Sum(b); got != want {
		return fmt.Errorf("%s: output digest %.12s, pinned %.12s", what, got, want)
	}
	return nil
}
