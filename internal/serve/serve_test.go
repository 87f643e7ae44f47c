package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/sampling"
)

// testConfig is a small, fast session: 9-node grid on a 60×60 field
// with coarse division cells.
func testConfig(seed uint64) SessionConfig {
	return SessionConfig{
		Seed:      seed,
		Field:     &RectWire{Min: PointWire{0, 0}, Max: PointWire{60, 60}},
		GridNodes: 9,
		CellSize:  3,
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %T: %v", v, err)
	}
	return v
}

func TestSessionLifecycle(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Create.
	resp := postJSON(t, client, ts.URL+"/v1/sessions", testConfig(7))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	sw := decodeBody[sessionWire](t, resp)
	if sw.ID == "" || sw.Nodes != 9 || sw.Faces == 0 {
		t.Fatalf("create: %+v", sw)
	}

	// List + get.
	resp, err := client.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	if list := decodeBody[[]sessionWire](t, resp); len(list) != 1 || list[0].ID != sw.ID {
		t.Fatalf("list: %+v", list)
	}
	resp, err = client.Get(ts.URL + "/v1/sessions/" + sw.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeBody[sessionWire](t, resp); got.ID != sw.ID {
		t.Fatalf("get: %+v", got)
	}

	// Localize twice: per-target sequence numbers must advance and the
	// estimate must land inside the field.
	for want := uint64(0); want < 2; want++ {
		resp = postJSON(t, client, ts.URL+"/v1/sessions/"+sw.ID+"/localize",
			LocalizeWire{Target: "alpha", X: 20, Y: 30})
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("localize: status %d: %s", resp.StatusCode, body)
		}
		ew := decodeBody[EstimateWire](t, resp)
		if ew.Target != "alpha" || ew.Seq != want {
			t.Fatalf("localize: target %q seq %d, want alpha %d", ew.Target, ew.Seq, want)
		}
		if ew.X < 0 || ew.X > 60 || ew.Y < 0 || ew.Y > 60 {
			t.Fatalf("estimate outside field: %+v", ew)
		}
		if ew.Confidence < 0 || ew.Confidence > 1 {
			t.Fatalf("confidence out of range: %+v", ew)
		}
	}

	// Report-ingestion path: a directly sampled group round-trips.
	cfg := testConfig(7)
	cc, err := cfg.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	smp := &sampling.Sampler{Model: cc.Model, Nodes: cc.Nodes, Range: cc.Range, Epsilon: cc.Epsilon}
	g := smp.Sample(geom.Pt(40, 40), 5, randx.New(3))
	resp = postJSON(t, client, ts.URL+"/v1/sessions/"+sw.ID+"/reports",
		ReportWire{Target: "bravo", RSS: g.RSS, Reported: g.Reported})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("reports: status %d: %s", resp.StatusCode, body)
	}
	if ew := decodeBody[EstimateWire](t, resp); ew.Target != "bravo" || ew.Seq != 0 {
		t.Fatalf("reports: %+v", ew)
	}

	// Latest estimate endpoint; then a target that never localized: 404.
	resp, err = client.Get(ts.URL + "/v1/sessions/" + sw.ID + "/estimates/alpha")
	if err != nil {
		t.Fatal(err)
	}
	if ew := decodeBody[EstimateWire](t, resp); ew.Seq != 1 {
		t.Fatalf("latest: %+v", ew)
	}
	resp, err = client.Get(ts.URL + "/v1/sessions/" + sw.ID + "/estimates/nobody")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("estimate for unknown target: status %d", resp.StatusCode)
	}

	// Session targets now listed.
	resp, err = client.Get(ts.URL + "/v1/sessions/" + sw.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeBody[sessionWire](t, resp); len(got.Targets) != 2 {
		t.Fatalf("targets: %+v", got)
	}

	// Close; then every session route 404s, and a second close 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sw.ID, nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	for _, probe := range []string{
		"/v1/sessions/" + sw.ID,
		"/v1/sessions/" + sw.ID + "/estimates/alpha",
	} {
		resp, err = client.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s after close: status %d", probe, resp.StatusCode)
		}
	}
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double close: status %d, want 404", resp.StatusCode)
	}
}

func TestCreateSessionBadConfigs(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	cases := []struct {
		name string
		body string
		want string // substring of the error
	}{
		{"malformed json", `{"seed": `, "bad session config"},
		{"unknown field", `{"seed": 1, "bogus": true}`, "bogus"},
		{"no node source", `{"seed": 1}`, "exactly one of"},
		{"two node sources", `{"seed": 1, "gridNodes": 9, "randomNodes": 9}`, "exactly one of"},
		{"one node", `{"seed": 1, "nodes": [{"x": 1, "y": 1}]}`, "at least 2 nodes"},
		{"negative k", `{"seed": 1, "gridNodes": 9, "samplingTimes": -3}`, "sampling times"},
		{"bad variant", `{"seed": 1, "gridNodes": 9, "variant": "quantum"}`, "variant"},
		{"degenerate field", `{"seed": 1, "gridNodes": 9, "field": {"min": {"x": 0, "y": 0}, "max": {"x": 0, "y": 50}}}`, "degenerate field"},
	}
	for _, tc := range cases {
		resp, err := client.Post(ts.URL+"/v1/sessions", "application/json",
			strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		ew := decodeBody[errorWire](t, resp)
		if !strings.Contains(ew.Error, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, ew.Error, tc.want)
		}
	}

	// Config.Validate errors surface verbatim — the "degenerate field"
	// and "at least 2 nodes" cases above come from core, not serve.
}

func TestUnknownSessionRoutes(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	probes := []struct {
		method, path string
	}{
		{http.MethodGet, "/v1/sessions/nope"},
		{http.MethodDelete, "/v1/sessions/nope"},
		{http.MethodPost, "/v1/sessions/nope/localize"},
		{http.MethodPost, "/v1/sessions/nope/reports"},
		{http.MethodGet, "/v1/sessions/nope/estimates/t"},
		{http.MethodGet, "/v1/sessions/nope/stream"},
	}
	for _, p := range probes {
		req, _ := http.NewRequest(p.method, ts.URL+p.path, strings.NewReader(`{"target":"t"}`))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", p.method, p.path, resp.StatusCode)
		}
	}
}

func TestLocalizeValidation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	sess, err := srv.CreateSession(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/sessions/" + sess.ID()

	// Missing target.
	resp := postJSON(t, client, base+"/localize", LocalizeWire{X: 1, Y: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing target: status %d", resp.StatusCode)
	}
	// Bad timeout header.
	req, _ := http.NewRequest(http.MethodPost, base+"/localize",
		strings.NewReader(`{"target":"t","x":1,"y":1}`))
	req.Header.Set("X-Fttt-Timeout", "soon")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout header: status %d", resp.StatusCode)
	}
	// Malformed report: ragged RSS matrix.
	resp = postJSON(t, client, base+"/reports", ReportWire{
		Target:   "t",
		RSS:      [][]float64{{1, 2}, {1}},
		Reported: []bool{true, true},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ragged report: status %d", resp.StatusCode)
	}
	// Report with the wrong node count.
	resp = postJSON(t, client, base+"/reports", ReportWire{
		Target:   "t",
		RSS:      [][]float64{{1, 2}},
		Reported: []bool{true, true},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong node count: status %d", resp.StatusCode)
	}
}

// TestOversizedBodiesRejected pins the body bound: a report or localize
// body past maxRequestBody is answered 413 without being ingested, so
// the target's next sequence number is the one it would have had.
func TestOversizedBodiesRejected(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	cfg := testConfig(5)
	sess, err := srv.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/sessions/" + sess.ID()
	cc, err := cfg.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	smp := &sampling.Sampler{Model: cc.Model, Nodes: cc.Nodes, Range: cc.Range, Epsilon: cc.Epsilon}
	report := func(seed uint64) ReportWire {
		g := smp.Sample(geom.Pt(30, 30), 5, randx.New(seed))
		return ReportWire{Target: "t", RSS: g.RSS, Reported: g.Reported}
	}
	ingest := func(seed uint64, wantSeq uint64) {
		t.Helper()
		resp := postJSON(t, client, base+"/reports", report(seed))
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("report: status %d: %s", resp.StatusCode, body)
		}
		if ew := decodeBody[EstimateWire](t, resp); ew.Seq != wantSeq {
			t.Fatalf("report: seq %d, want %d", ew.Seq, wantSeq)
		}
	}
	ingest(1, 0)

	// A well-formed report whose matrix runs just past the bound.
	var big bytes.Buffer
	big.WriteString(`{"target":"t","rss":[[`)
	for big.Len() <= maxRequestBody {
		big.WriteString("-60.5,")
	}
	big.WriteString(`-60.5]],"reported":[true]}`)
	post := func(path string, body []byte) {
		t.Helper()
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized %s body: status %d (%s), want 413", path, resp.StatusCode, msg)
		}
	}
	post("/reports", big.Bytes())
	// The same bound guards localize; padding whitespace keeps the body
	// valid JSON, so only its size is at fault.
	post("/localize", append(bytes.Repeat([]byte(" "), maxRequestBody), `{"target":"t","x":1,"y":1}`...))

	ingest(2, 1)
}

// TestSSEStream covers the stream lifecycle: subscribe, receive an
// estimate event, and observe the close event + EOF when the session is
// torn down mid-stream.
func TestSSEStream(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	sess, err := srv.CreateSession(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := client.Get(ts.URL + "/v1/sessions/" + sess.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	// The comment preamble arrives first — wait for it so the
	// subscription is provably registered before localizing.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ": stream") {
		t.Fatalf("stream preamble: %q (err %v)", sc.Text(), sc.Err())
	}

	if _, err := sess.Localize(context.Background(), "alpha", geom.Pt(30, 30)); err != nil {
		t.Fatal(err)
	}
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			goto gotEvent
		}
	}
	t.Fatalf("no event received: %v", sc.Err())
gotEvent:
	if event != "estimate" {
		t.Fatalf("event %q, want estimate", event)
	}
	var ew EstimateWire
	if err := json.Unmarshal([]byte(data), &ew); err != nil {
		t.Fatalf("event data %q: %v", data, err)
	}
	if ew.Target != "alpha" || ew.Seq != 0 {
		t.Fatalf("event estimate: %+v", ew)
	}

	// Teardown: closing the session must end the stream with a close
	// event and EOF, without the client hanging.
	done := make(chan error, 1)
	go func() {
		var sawClose bool
		for sc.Scan() {
			if sc.Text() == "event: close" {
				sawClose = true
			}
		}
		if !sawClose {
			done <- fmt.Errorf("stream ended without close event")
			return
		}
		done <- sc.Err()
	}()
	if !srv.CloseSession(sess.ID()) {
		t.Fatal("CloseSession returned false")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream teardown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after session close")
	}
}

// TestSSETargetFilter checks ?target= only delivers that target's
// estimates.
func TestSSETargetFilter(t *testing.T) {
	srv := New(Config{})
	sess, err := srv.CreateSession(testConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, ok := sess.subscribe("bravo")
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer cancel()
	ctx := context.Background()
	if _, err := sess.Localize(ctx, "alpha", geom.Pt(10, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Localize(ctx, "bravo", geom.Pt(50, 50)); err != nil {
		t.Fatal(err)
	}
	payload := <-ch
	var ew EstimateWire
	if err := json.Unmarshal(payload, &ew); err != nil {
		t.Fatal(err)
	}
	if ew.Target != "bravo" {
		t.Fatalf("filtered stream delivered %q", ew.Target)
	}
	select {
	case extra := <-ch:
		t.Fatalf("unexpected second event: %s", extra)
	default:
	}
}

// TestDrain covers graceful shutdown: in-flight work completes, new
// work is refused with 503, health flips unhealthy, SSE streams end.
func TestDrain(t *testing.T) {
	gate := make(chan struct{})
	var gated sync.Once
	entered := make(chan struct{})
	srv := New(Config{Hooks: Hooks{BeforeBatch: func(int) {
		gated.Do(func() { close(entered); <-gate })
	}}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	sess, err := srv.CreateSession(testConfig(9))
	if err != nil {
		t.Fatal(err)
	}

	// One request held at the batch gate...
	type res struct {
		r   Result
		err error
	}
	inflight := make(chan res, 1)
	go func() {
		r, err := sess.Localize(context.Background(), "t", geom.Pt(20, 20))
		inflight <- res{r, err}
	}()
	<-entered

	// ...drain starts concurrently; once the gate lifts, the in-flight
	// request must complete successfully.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	// Give Drain a moment to set the flag, then verify refusal. Probes
	// racing the flag get admitted but the batcher is gated, so they
	// must carry their own short deadline.
	for i := 0; ; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := sess.Localize(ctx, "t2", geom.Pt(1, 1))
		cancel()
		if err == ErrDraining {
			break
		}
		if i > 100 {
			t.Fatalf("draining server still admits work (last err %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d", resp.StatusCode)
	}

	close(gate)
	if r := <-inflight; r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// New sessions are refused too.
	if _, err := srv.CreateSession(testConfig(1)); err != ErrDraining {
		t.Fatalf("CreateSession while drained: %v", err)
	}
	resp = postJSON(t, client, ts.URL+"/v1/sessions", testConfig(1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while drained: status %d", resp.StatusCode)
	}
}
