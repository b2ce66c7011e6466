package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"vcfr/internal/harness"
	"vcfr/internal/jobs"
)

// FuzzJobBody: POST /v1/jobs answers any body with 202 or a 4xx, never a
// 5xx and never a panic. A body the handler accepts normalizes to a fixed
// point: decoding it again and normalizing twice gives the same request as
// normalizing once.
//
// The server is never started, so no worker runs and every accepted job
// stays queued; once the queue is full, valid bodies get 429, which the
// handler answers only after the body passed validation.
//
// Seeds: the checked-in corpus under testdata/fuzz/FuzzJobBody (one valid
// body per kind, bad JSON, an unknown kind, negative fields, and a body one
// byte over the size cap).
func FuzzJobBody(f *testing.F) {
	s := New(Config{Runner: harness.NewRunner(1)})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted && (rec.Code < 400 || rec.Code >= 500) {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusTooManyRequests {
			return
		}
		once, kind := decodeJobBody(t, body)
		if err := once.Normalize(kind); err != nil {
			t.Fatalf("handler accepted a body Normalize refuses: %v", err)
		}
		twice, _ := decodeJobBody(t, body)
		for i := 0; i < 2; i++ {
			if err := twice.Normalize(kind); err != nil {
				t.Fatalf("Normalize #%d refuses a normalized request: %v", i+1, err)
			}
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("Normalize is not idempotent:\nonce  %+v\ntwice %+v", once, twice)
		}
	})
}

// decodeJobBody decodes body as handleJobs does and returns its request and
// kind; it fails the test on a body the handler would have refused.
func decodeJobBody(t *testing.T, body []byte) (jobs.Request, jobs.Kind) {
	t.Helper()
	var jr JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jr); err != nil {
		t.Fatalf("handler accepted a body that does not decode: %v", err)
	}
	kind, err := jobs.ParseKind(jr.Kind)
	if err != nil {
		t.Fatalf("handler accepted an unknown kind: %v", err)
	}
	return jr.Request, kind
}
