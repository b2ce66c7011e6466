package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"vcfr/internal/jobs"
	"vcfr/internal/server"
)

// TestFlagsMatchServiceRequest pins the CLI↔service identity at the
// request level: for each command line the vcfrd smoke compares against a
// job, the normalized request experiments builds from its flags must equal
// the one vcfrd decodes and normalizes from the job body. Equal requests
// run the same jobs.Run, so their envelopes are byte-identical.
func TestFlagsMatchServiceRequest(t *testing.T) {
	for _, tc := range []struct {
		name, args, body string
	}{
		{"faults", "-mode faults -workloads bzip2 -injections 30 -instructions 10000 -stats-json",
			`{"kind": "faults", "workloads": ["bzip2"], "mode": "all", "injections": 30, "instructions": 10000}`},
		{"attacks", "-mode attacks -workloads bzip2 -stats-json",
			`{"kind": "attacks", "workloads": ["bzip2"], "mode": "all"}`},
		{"multicore", "-mode multicore -workloads bzip2,sjeng -cells 1c2t -quantum 2000 -instructions 10000 -stats-json",
			`{"kind": "multicore", "workloads": ["bzip2", "sjeng"], "cells": ["1c2t"], "quantum": 2000, "instructions": 10000}`},
		{"sweep", "-stats-json -workloads lbm -instructions 50000",
			`{"kind": "sweep", "workloads": ["lbm"], "instructions": 50000}`},
		// An explicit zero is a value, not an absent field, on both surfaces.
		{"seed 0", "-mode faults -workloads bzip2 -seed 0 -stats-json",
			`{"kind": "faults", "workloads": ["bzip2"], "seed": 0}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := parseFlags(strings.Fields(tc.args))
			kind, err := o.jobKind()
			if err != nil {
				t.Fatal(err)
			}
			cli := o.req
			if err := cli.Normalize(kind); err != nil {
				t.Fatal(err)
			}

			var jr server.JobRequest
			dec := json.NewDecoder(strings.NewReader(tc.body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&jr); err != nil {
				t.Fatal(err)
			}
			svcKind, err := jobs.ParseKind(jr.Kind)
			if err != nil {
				t.Fatal(err)
			}
			svc := jr.Request
			if err := svc.Normalize(svcKind); err != nil {
				t.Fatal(err)
			}

			if kind != svcKind {
				t.Errorf("kind: cli %q, service %q", kind, svcKind)
			}
			if !reflect.DeepEqual(cli, svc) {
				c, _ := json.Marshal(cli)
				s, _ := json.Marshal(svc)
				t.Errorf("requests differ:\ncli     %s\nservice %s", c, s)
			}
		})
	}
}

// TestModeVocabulary: -mode takes tables or a campaign kind; the other job
// kinds are not CLI modes.
func TestModeVocabulary(t *testing.T) {
	for mode, want := range map[string]jobs.Kind{
		"tables": "", "faults": jobs.KindFaults, "attacks": jobs.KindAttacks, "multicore": jobs.KindMulticore,
	} {
		if k, err := parseFlags([]string{"-mode", mode}).jobKind(); err != nil || k != want {
			t.Errorf("-mode %s = %q, %v; want %q", mode, k, err, want)
		}
	}
	for _, mode := range []string{"run", "sweep", "bogus"} {
		_, err := parseFlags([]string{"-mode", mode}).jobKind()
		if err == nil || err.Error() != `unknown -mode "`+mode+`" (want tables, faults, attacks, or multicore)` {
			t.Errorf("-mode %s: err = %v", mode, err)
		}
	}
}
