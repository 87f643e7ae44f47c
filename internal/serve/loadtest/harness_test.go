package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"fttt/internal/core"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/serve"
)

// Config is one load wave: Clients goroutines, each owning the target
// TargetID(i) and issuing Requests sequential localize calls at
// positions drawn from Seed. The per-target request sequence is
// deterministic, so the serving determinism contract pins every
// response body regardless of interleaving.
type Config struct {
	Clients  int
	Requests int
	// Seed draws the workload positions (independent of the session
	// seed, which draws the sampling noise).
	Seed uint64
	// Session is the session to create and drive.
	Session serve.SessionConfig
	// Timeout, when positive, is sent as the X-Fttt-Timeout header on
	// every request.
	Timeout time.Duration
}

// TargetID names client i's target.
func TargetID(i int) string { return fmt.Sprintf("client-%d", i) }

// Positions returns the deterministic workload: Positions()[target][n]
// is that target's n-th true position, confined to the session field's
// interior.
func (c Config) Positions() map[string][]geom.Point {
	field := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	if c.Session.Field != nil {
		field = geom.NewRect(
			geom.Pt(c.Session.Field.Min.X, c.Session.Field.Min.Y),
			geom.Pt(c.Session.Field.Max.X, c.Session.Field.Max.Y),
		)
	}
	margin := 0.08 * field.Width()
	rng := randx.New(c.Seed)
	out := make(map[string][]geom.Point, c.Clients)
	for i := 0; i < c.Clients; i++ {
		tr := rng.SplitN("client", i)
		pts := make([]geom.Point, c.Requests)
		for n := range pts {
			pts[n] = geom.Pt(
				tr.Uniform(field.Min.X+margin, field.Max.X-margin),
				tr.Uniform(field.Min.Y+margin, field.Max.Y-margin),
			)
		}
		out[TargetID(i)] = pts
	}
	return out
}

// Expected computes the unbatched serial reference: the exact response
// bytes (sans trailing newline) the server must return for each
// target's request sequence on the no-shed path.
func (c Config) Expected() (map[string][][]byte, error) {
	cc, err := c.Session.CoreConfig()
	if err != nil {
		return nil, err
	}
	mt, err := core.NewMulti(cc)
	if err != nil {
		return nil, err
	}
	root := randx.New(c.Session.Seed)
	out := make(map[string][][]byte, c.Clients)
	for i := 0; i < c.Clients; i++ {
		target := TargetID(i)
		for n, pos := range c.Positions()[target] {
			ests, err := mt.LocalizeBatch([]core.LocalizeRequest{{
				ID:  target,
				Pos: pos,
				Rng: serve.RequestStream(root, target, uint64(n)),
			}})
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(serve.WireEstimate(target, uint64(n), ests[0]))
			if err != nil {
				return nil, err
			}
			out[target] = append(out[target], b)
		}
	}
	return out, nil
}

// Result tallies one wave.
type Result struct {
	OK, Shed, Deadline, Other int
	// Bodies[target][n] is the n-th 200 response body for target, in
	// issue order, trailing whitespace trimmed.
	Bodies map[string][][]byte
	// RetryAfter records whether every 429 carried a Retry-After hint.
	RetryAfter bool
	// Statuses counts responses by HTTP status code.
	Statuses map[int]int
}

// Run creates a session on the server behind baseURL and fires the
// full wave — CreateSession followed by RunWave over every request.
// The session is left open; callers own its lifecycle via the returned
// ID.
func Run(client *http.Client, baseURL string, cfg Config) (string, *Result, error) {
	id, err := CreateSession(client, baseURL, cfg.Session)
	if err != nil {
		return "", nil, err
	}
	res, err := RunWave(client, baseURL, id, cfg, 0, cfg.Requests)
	return id, res, err
}

// RunWave fires requests [from, to) of each client's sequence at the
// existing session id. Clients stop issuing on transport errors but
// record shed (429) and deadline (504) responses and keep going — real
// load-generator behaviour. Splitting one Config across several
// RunWave calls (migrating the session between them) must yield the
// same bodies as one uninterrupted wave; merge the partial results
// with Result.Merge before VerifyBodies.
func RunWave(client *http.Client, baseURL, id string, cfg Config, from, to int) (*Result, error) {
	positions := cfg.Positions()
	res := &Result{
		Bodies:     make(map[string][][]byte, cfg.Clients),
		RetryAfter: true,
		Statuses:   make(map[int]int),
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(target string, pts []geom.Point) {
			defer wg.Done()
			for _, pos := range pts[from:to] {
				lw, err := json.Marshal(serve.LocalizeWire{Target: target, X: pos.X, Y: pos.Y})
				if err != nil {
					errCh <- err
					return
				}
				req, err := http.NewRequestWithContext(context.Background(),
					http.MethodPost, baseURL+"/v1/sessions/"+id+"/localize",
					bytes.NewReader(lw))
				if err != nil {
					errCh <- err
					return
				}
				req.Header.Set("Content-Type", "application/json")
				if cfg.Timeout > 0 {
					req.Header.Set("X-Fttt-Timeout", cfg.Timeout.String())
				}
				resp, err := client.Do(req)
				if err != nil {
					errCh <- fmt.Errorf("loadtest: %s: %w", target, err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				res.Statuses[resp.StatusCode]++
				switch resp.StatusCode {
				case http.StatusOK:
					res.OK++
					res.Bodies[target] = append(res.Bodies[target], bytes.TrimSpace(b))
				case http.StatusTooManyRequests:
					res.Shed++
					if resp.Header.Get("Retry-After") == "" {
						res.RetryAfter = false
					}
				case http.StatusGatewayTimeout:
					res.Deadline++
				default:
					res.Other++
				}
				mu.Unlock()
			}
		}(TargetID(i), positions[TargetID(i)])
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return res, err
	}
	return res, nil
}

// Merge folds other's tallies into r, appending each target's bodies
// after r's own — correct when r covers an earlier request range of
// the same Config than other.
func (r *Result) Merge(other *Result) {
	r.OK += other.OK
	r.Shed += other.Shed
	r.Deadline += other.Deadline
	r.Other += other.Other
	r.RetryAfter = r.RetryAfter && other.RetryAfter
	for target, seq := range other.Bodies {
		r.Bodies[target] = append(r.Bodies[target], seq...)
	}
	for code, n := range other.Statuses {
		r.Statuses[code] += n
	}
}

// VerifyBodies compares a wave's 200 bodies against the serial
// reference, requiring complete, byte-identical per-target sequences —
// the assertion for no-shed waves.
func VerifyBodies(res *Result, want map[string][][]byte) error {
	for target, wantSeq := range want {
		gotSeq := res.Bodies[target]
		if len(gotSeq) != len(wantSeq) {
			return fmt.Errorf("loadtest: %s: %d bodies, want %d", target, len(gotSeq), len(wantSeq))
		}
		for n := range wantSeq {
			if !bytes.Equal(gotSeq[n], wantSeq[n]) {
				return fmt.Errorf("loadtest: %s[%d]:\n got %s\nwant %s",
					target, n, gotSeq[n], wantSeq[n])
			}
		}
	}
	return nil
}
