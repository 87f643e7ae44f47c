// Package loadtest is the deterministic end-to-end load/latency harness
// for the serving layer (internal/serve): N goroutine clients — one
// tracked target each — fire seeded localize workloads at a server over
// real HTTP, and the harness tallies outcomes by status so tests can
// assert exact shed/timeout counts and compare every response body
// byte-for-byte against the unbatched serial reference. The harness
// lives in this package's test files (the short deterministic test, the
// -tags soak variant and the race-mode CI job all drive it); the
// non-test code is CreateSession, which the benchmark module shares.
package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"fttt/internal/serve"
)

// CreateSession creates one session on the server (or cluster router)
// behind baseURL and returns its ID.
func CreateSession(client *http.Client, baseURL string, sc serve.SessionConfig) (string, error) {
	body, err := json.Marshal(sc)
	if err != nil {
		return "", err
	}
	resp, err := client.Post(baseURL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("loadtest: create session: status %d: %s", resp.StatusCode, b)
	}
	var sw struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sw); err != nil {
		return "", err
	}
	return sw.ID, nil
}
