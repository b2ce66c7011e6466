package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"vcfr/perfbench/spec"
)

// goldens are the campaign golden files the canonical campaigns must
// reproduce byte for byte.
var goldens = map[string]string{
	"faults":    "internal/fault/testdata/campaign.golden.json",
	"attacks":   "internal/attack/testdata/campaign.golden.json",
	"multicore": "internal/multicore/testdata/multicore.golden.json",
}

// pinDigests computes every digest the benchmark checks from the current
// programs and writes them as JSON. Campaign envelopes are pinned only when
// they equal their golden files.
func pinDigests(ctx context.Context, b *bench, w io.Writer) error {
	exp := b.exe("experiments")
	d := spec.Digests{
		Sweep:     map[string]string{},
		Tables:    map[string]string{},
		Campaigns: map[string]string{},
		Service:   map[string]map[string]string{},
	}
	for _, mode := range spec.Campaigns {
		golden, err := os.ReadFile(goldens[mode])
		if err != nil {
			return err
		}
		p, err := runCmd(ctx, exp, campaignArgs(mode)...)
		if err != nil {
			return err
		}
		if !bytes.Equal(p.stdout, golden) {
			return fmt.Errorf("%s envelope differs from %s", mode, goldens[mode])
		}
		d.Campaigns[mode] = spec.Sum(golden)
	}
	v, err := startVcfrd(ctx, b.exe("vcfrd"))
	if err != nil {
		return err
	}
	defer v.stop()
	for _, seed := range spec.Pool {
		key := spec.Key(seed)
		p, err := runCmd(ctx, exp, sweepArgs(seed)...)
		if err != nil {
			return err
		}
		d.Sweep[key] = spec.Sum(p.stdout)
		if p, err = runCmd(ctx, exp, tablesArgs(seed)...); err != nil {
			return err
		}
		d.Tables[key] = spec.Sum(normalizeTables(p.stdout))
		d.Service[key] = map[string]string{}
		for _, j := range spec.Templates(spec.Mix(seed)) {
			body, err := v.job(ctx, j)
			if err != nil {
				return err
			}
			d.Service[key][j.Name()] = spec.Sum(body)
		}
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
