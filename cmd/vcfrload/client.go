package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"vcfr/internal/server"
)

// client drives one vcfrd through the three calls a load-test job makes:
// submit, wait for the terminal event, fetch the result.
type client struct {
	base string
	// http carries no global timeout: a job's event stream stays open
	// until the job ends, so deadlines come through ctx.
	http *http.Client
}

func (c *client) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.http.Do(req)
}

// submit posts one job and returns its id. Any answer but 202 is an error
// carrying the status and the service's error envelope.
func (c *client) submit(ctx context.Context, kind server.JobKind, req server.SimRequest) (string, error) {
	body, err := json.Marshal(server.JobRequest{Kind: string(kind), SimRequest: req})
	if err != nil {
		return "", err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" {
		return "", fmt.Errorf("submit: bad 202 body %q", data)
	}
	return acc.ID, nil
}

// wait follows the job's event stream until its terminal event: "done"
// returns nil, "failed" returns the job's error. Progress events are
// skipped.
func (c *client) wait(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("events: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "done":
			return nil
		case "failed":
			var t struct {
				Error string `json:"error"`
			}
			_ = json.Unmarshal([]byte(data), &t)
			return fmt.Errorf("job %s failed: %s", id, t.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("event stream broke: %w", err)
	}
	return fmt.Errorf("event stream ended without a terminal event")
}

// result fetches the finished job's envelope and discards it: the load
// test times the whole transfer but checks only the status.
func (c *client) result(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("result: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
