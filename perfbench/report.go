package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
)

// metricName is the benchmark's metric-name grammar: a letter or digit, then
// up to 63 letters, digits, '_', '.' or '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object a run prints last: whether every
// output check passed, how many operations were attempted and failed, and
// the metrics by name.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

// set records one metric, refusing a name outside the grammar.
func (r *result) set(name, unit string, v float64) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	return nil
}

// count tallies one operation and whether it failed (errored, was refused,
// or produced output that did not match its pinned digest).
func (r *result) count(failed bool) {
	r.Attempted++
	if failed {
		r.Failed++
	}
}

// write prints the result as a single JSON line.
func (r *result) write(w io.Writer) error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
