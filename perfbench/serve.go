package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pas2p"
	"pas2p/internal/service"
	"pas2p/internal/trace"
	"pas2p/internal/workload"
)

// The serve workload signs, looks up and predicts one small app.
const (
	serveApp      = "cg"
	serveProcs    = 8
	serveWorkload = "classA"
)

// Request classes, indexing serveClasses.
const (
	clsLookup = iota
	clsHit
	clsMiss
	clsStream
	clsPredict
	clsSign
)

// serveMix is how many requests of each class one pass sends. The
// total is at least 1,000 so that p99 has ten requests beyond it.
var serveMix = [...]int{
	clsLookup:  420,
	clsHit:     360,
	clsMiss:    180,
	clsStream:  24,
	clsPredict: 120,
	clsSign:    96,
}

// serveClients is the number of closed-loop clients: one per CPU the
// benchmark was tuned on, so load generation never outnumbers them.
const serveClients = 2

// Fresh analyze bodies: small ones stay on the in-core lane, large
// ones reach the default stream threshold (8 MiB).
const (
	missEvents   = 10_000
	streamEvents = 100_000
	streamMinLen = 8 << 20
)

// server is an in-process signature service on a loopback listener.
type server struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	repo string
	done chan error

	closeOnce sync.Once
	closeErr  error
}

// startServer starts a service with the default configuration over a
// fresh repository under dir and signs the served app, so that lookup
// and predict have an entry to read.
func startServer(dir string, c *http.Client) (*server, error) {
	repo, err := os.MkdirTemp(dir, "repo-*")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{RepoDir: repo})
	if err != nil {
		return nil, err
	}
	h, err := svc.Handler()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: svc, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), repo: repo, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	var sr service.SignResponse
	if _, err := post(c, s.url+"/v1/sign", signBody(), &sr); err != nil {
		s.close()
		return nil, fmt.Errorf("initial sign: %w", err)
	}
	return s, nil
}

// close stops the listener, drains the service and waits for both;
// later calls return the first call's error.
func (s *server) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := s.srv.Shutdown(ctx)
		if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
			err = serr
		}
		s.svc.Drain(ctx)
		if rerr := os.RemoveAll(s.repo); err == nil {
			err = rerr
		}
		s.closeErr = err
	})
	return s.closeErr
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			MaxConnsPerHost:     serveClients,
			DisableCompression:  true,
		},
	}
}

func signBody() []byte {
	b, _ := json.Marshal(service.SignRequest{App: serveApp, Procs: serveProcs, Workload: serveWorkload}) // a plain struct always marshals
	return b
}

func predictBody() []byte {
	b, _ := json.Marshal(service.PredictRequest{App: serveApp, Procs: serveProcs, Workload: serveWorkload}) // a plain struct always marshals
	return b
}

// httpError is a non-200 answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// retryable reports whether the service refused the request for now
// (queue full, shed, draining) rather than rejecting it.
func (e *httpError) retryable() bool {
	return e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable
}

// post sends a JSON body and decodes a 200's JSON answer into dst.
func post(c *http.Client, url string, body []byte, dst any) (http.Header, error) {
	return do(c, http.MethodPost, url, bytes.NewReader(body), int64(len(body)), dst)
}

// do sends one request with a body of the given size (nil for none)
// and decodes a 200's JSON answer into dst, returning its headers; any
// other status is an *httpError.
func do(c *http.Client, method, url string, body io.Reader, size int64, dst any) (http.Header, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.ContentLength = size
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	if err := json.Unmarshal(b, dst); err != nil {
		return nil, fmt.Errorf("decoding %s answer: %w", url, err)
	}
	return resp.Header, nil
}

// body is one analyze upload: in memory, or a file for the large ones.
type body struct {
	data   []byte
	path   string
	size   int64
	crc    uint32
	events int
	aet    int64 // base AET the tracefile's header declares
}

func (b body) open() (io.ReadCloser, error) {
	if b.path == "" {
		return io.NopCloser(bytes.NewReader(b.data)), nil
	}
	return os.Open(b.path)
}

// synthBody generates a fresh tracefile of about events events; a
// non-empty path writes it there instead of keeping it in memory.
func synthBody(seed uint64, events int64, path string) (body, error) {
	spec := workload.SynthSpec{AppName: "synth", Procs: 16, TargetEvents: events, Seed: seed}
	if path == "" {
		var buf bytes.Buffer
		meta, err := workload.Synthesize(&buf, spec)
		if err != nil {
			return body{}, err
		}
		crc, _ := trace.FileCRC(buf.Bytes())
		return body{data: buf.Bytes(), size: int64(buf.Len()), crc: crc, events: int(meta.Events), aet: int64(meta.AET)}, nil
	}
	meta, err := writeSynth(path, spec)
	if err != nil {
		return body{}, err
	}
	f, err := os.Open(path)
	if err != nil {
		return body{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return body{}, err
	}
	crc, _ := trace.FileCRCAt(f, st.Size())
	return body{path: path, size: st.Size(), crc: crc, events: int(meta.Events), aet: int64(meta.AET)}, nil
}

// sample is one request's outcome.
type sample struct {
	class   int
	latency float64
	cache   string
}

// loadgen drives the server with a seeded plan of requests.
type loadgen struct {
	c       *http.Client
	url     string
	hit     body
	sha     string // payload SHA every lookup, predict and sign must report
	pet     int64  // PET every predict must report
	retries atomic.Int64
	failed  atomic.Int64
	tracer  *Tracer
}

// passInputs is one pass's plan and its fresh bodies.
type passInputs struct {
	plan   []int
	miss   []body
	stream []body
}

// preparePass draws pass p's request order and generates its fresh
// bodies, re-seeded per pass so that every miss is a miss.
func preparePass(e *env, p int) (*passInputs, error) {
	rng := rand.New(rand.NewSource(e.seed*7919 + int64(p) + 1_000_000))
	in := &passInputs{}
	for cls, n := range serveMix {
		for j := 0; j < n; j++ {
			in.plan = append(in.plan, cls)
		}
	}
	rng.Shuffle(len(in.plan), func(i, j int) { in.plan[i], in.plan[j] = in.plan[j], in.plan[i] })
	dir := filepath.Join(e.dir, "bodies")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for j := 0; j < serveMix[clsMiss]; j++ {
		b, err := synthBody(rng.Uint64(), missEvents, "")
		if err != nil {
			return nil, err
		}
		in.miss = append(in.miss, b)
	}
	for j := 0; j < serveMix[clsStream]; j++ {
		b, err := synthBody(rng.Uint64(), streamEvents, filepath.Join(dir, fmt.Sprintf("s%d.pas2p", j)))
		if err != nil {
			return nil, err
		}
		if b.size < streamMinLen {
			return nil, fmt.Errorf("stream body is %d bytes, under the %d-byte stream threshold", b.size, streamMinLen)
		}
		in.stream = append(in.stream, b)
	}
	return in, nil
}

// pass sends every planned request from serveClients closed-loop
// clients and returns the samples in plan order. A span per request
// is recorded under parent when the generator traces.
func (g *loadgen) pass(in *passInputs, parent int) ([]sample, error) {
	out := make([]sample, len(in.plan))
	var next, nMiss, nStream atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.plan) {
					return
				}
				cls := in.plan[i]
				var b body
				switch cls {
				case clsMiss:
					b = in.miss[nMiss.Add(1)-1]
				case clsStream:
					b = in.stream[nStream.Add(1)-1]
				}
				id := 0
				if g.tracer != nil {
					id = g.tracer.Start(parent, "serve."+serveClasses[cls])
				}
				t0 := time.Now()
				cache, err := g.request(cls, b)
				out[i] = sample{class: cls, latency: time.Since(t0).Seconds(), cache: cache}
				if id != 0 {
					g.tracer.End(id)
				}
				if err != nil {
					errs[w] = fmt.Errorf("%s request %d: %w", serveClasses[cls], i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// maxRetries bounds how often one refused request is sent again.
const maxRetries = 5

// request sends one request of class cls, retrying refusals, and
// checks the answer. It returns the X-Cache header of analyze answers.
func (g *loadgen) request(cls int, b body) (string, error) {
	for attempt := 0; ; attempt++ {
		cache, err := g.once(cls, b)
		he, ok := err.(*httpError)
		if !ok || !he.retryable() || attempt == maxRetries {
			if err != nil {
				g.failed.Add(1)
			}
			return cache, err
		}
		g.failed.Add(1)
		g.retries.Add(1)
		time.Sleep(20 * time.Millisecond)
	}
}

func (g *loadgen) once(cls int, b body) (string, error) {
	switch cls {
	case clsLookup:
		var r service.LookupResponse
		url := fmt.Sprintf("%s/v1/lookup?app=%s&procs=%d&workload=%s", g.url, serveApp, serveProcs, serveWorkload)
		if _, err := do(g.c, http.MethodGet, url, nil, 0, &r); err != nil {
			return "", err
		}
		return "", g.checkSHA(r.PayloadSHA256)
	case clsPredict:
		var r service.PredictResponse
		if _, err := post(g.c, g.url+"/v1/predict", predictBody(), &r); err != nil {
			return "", err
		}
		if r.PETNS != g.pet {
			return "", fmt.Errorf("predict PET %d ns, expected %d ns", r.PETNS, g.pet)
		}
		return "", g.checkSHA(r.PayloadSHA256)
	case clsSign:
		var r service.SignResponse
		if _, err := post(g.c, g.url+"/v1/sign", signBody(), &r); err != nil {
			return "", err
		}
		return "", g.checkSHA(r.PayloadSHA256)
	}
	if cls == clsHit {
		b = g.hit
	}
	rc, err := b.open()
	if err != nil {
		return "", err
	}
	defer rc.Close()
	var r service.AnalyzeResponse
	h, err := do(g.c, http.MethodPost, g.url+"/v1/analyze", rc, b.size, &r)
	if err != nil {
		return "", err
	}
	if r.TraceCRC32C != b.crc || r.Events != b.events || r.BaseAETNS != b.aet {
		return "", fmt.Errorf("analyze answered CRC %08x, %d events, base AET %d ns for a body of CRC %08x, %d events, base AET %d ns",
			r.TraceCRC32C, r.Events, r.BaseAETNS, b.crc, b.events, b.aet)
	}
	cache := h.Get(service.CacheHeader)
	if cls != clsHit && cache != "miss" {
		return "", fmt.Errorf("a body never sent before was answered from the cache (X-Cache: %s)", cache)
	}
	wantMode := "in-core"
	if cls == clsStream {
		wantMode = "stream"
	}
	if mode := h.Get(service.AnalyzeModeHeader); mode != wantMode {
		return "", fmt.Errorf("analyze served by the %q lane, expected %q", mode, wantMode)
	}
	return cache, nil
}

func (g *loadgen) checkSHA(sha string) error {
	if sha != g.sha {
		return fmt.Errorf("payload SHA %s, expected %s", sha, g.sha)
	}
	return nil
}

// serveRig is a started server with its load generator.
type serveRig struct {
	srv *server
	gen *loadgen
}

// setupServe starts the server several times, timing each start, and
// keeps the last; it then learns the reference answers every later
// request is checked against.
func setupServe(e *env) (*serveRig, float64, error) {
	c := newClient()
	var srv *server
	setup, err := setupMedian(func() error {
		if srv != nil {
			if err := srv.close(); err != nil {
				return err
			}
		}
		var err error
		srv, err = startServer(e.dir, c)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	hit, err := synthBody(uint64(e.seed), missEvents, "")
	if err != nil {
		srv.close()
		return nil, 0, err
	}
	g := &loadgen{c: c, url: srv.url, hit: hit}
	var lr service.LookupResponse
	url := fmt.Sprintf("%s/v1/lookup?app=%s&procs=%d&workload=%s", srv.url, serveApp, serveProcs, serveWorkload)
	if _, err := do(c, http.MethodGet, url, nil, 0, &lr); err != nil {
		srv.close()
		return nil, 0, err
	}
	var pr service.PredictResponse
	if _, err := post(c, srv.url+"/v1/predict", predictBody(), &pr); err != nil {
		srv.close()
		return nil, 0, err
	}
	g.sha, g.pet = lr.PayloadSHA256, pr.PETNS
	return &serveRig{srv: srv, gen: g}, setup, nil
}

// servedPETE is the served prediction's error against the app's real
// run on the target, in percent.
func servedPETE(pet int64) (float64, error) {
	app, err := pas2p.MakeApp(serveApp, serveProcs, serveWorkload)
	if err != nil {
		return 0, err
	}
	td, err := pas2p.NewDeployment(pas2p.ClusterB(), serveProcs, pas2p.MapBlock)
	if err != nil {
		return 0, err
	}
	rr, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: td})
	if err != nil {
		return 0, err
	}
	aet := float64(rr.Elapsed)
	return 100 * math.Abs(float64(pet)-aet) / aet, nil
}

// runServe is the serve workload: an in-process service with the
// default configuration, driven closed-loop over loopback by two
// keep-alive clients with a fixed, seeded request mix per pass.
func runServe(e *env) (*outcome, error) {
	rig, setup, err := setupServe(e)
	if err != nil {
		return nil, err
	}
	defer rig.srv.close()
	o := &outcome{values: map[string]float64{"setup_s": setup}}
	var ops []float64
	var inputs *passInputs
	passes, err := timedPasses(e.seconds, func(p int) (err error) {
		inputs = nil // let the last pass's bodies go before making more
		inputs, err = preparePass(e, p)
		return err
	}, func(p int) (float64, error) {
		t0 := time.Now()
		s, err := rig.gen.pass(inputs, 0)
		d := time.Since(t0).Seconds()
		o.attempted += int64(len(inputs.plan))
		if err != nil {
			return 0, err
		}
		if p >= 0 {
			for _, x := range s {
				ops = append(ops, x.latency)
			}
		}
		return d, nil
	})
	o.attempted += rig.gen.retries.Load()
	o.failed = rig.gen.failed.Load()
	if err != nil {
		return o, err
	}
	if err := requireTail(len(inputs.plan), 9900); err != nil {
		return o, err
	}
	if o.values["peak_rss_mib"], err = peakRSSMiB(); err != nil {
		return o, err
	}
	if o.values["pete_max_pct"], err = servedPETE(rig.gen.pet); err != nil {
		return o, err
	}
	if err := rig.srv.close(); err != nil {
		return o, err
	}
	o.values["pass_s"] = median(passes)
	o.values["req_per_s"] = float64(len(inputs.plan)) / median(passes)
	o.values["p50_ms"] = 1e3 * percentile(ops, 5000)
	o.values["p99_ms"] = 1e3 * percentile(ops, 9900)
	return o, nil
}

// classStats reports each class's p50, p99 and count, the share of
// analyze requests the cache answered, and the retries.
func classStats(values map[string]float64, s []sample, retries int64) {
	lat := make([][]float64, len(serveClasses))
	var analyze, hits int
	for _, x := range s {
		lat[x.class] = append(lat[x.class], x.latency)
		if x.class == clsHit || x.class == clsMiss || x.class == clsStream {
			analyze++
			if x.cache == "hit" {
				hits++
			}
		}
	}
	for c, name := range serveClasses {
		values["serve."+name+".n"] = float64(len(lat[c]))
		values["serve."+name+".p50_ms"] = 1e3 * percentile(lat[c], 5000)
		values["serve."+name+".p99_ms"] = 1e3 * percentile(lat[c], 9900)
	}
	values["serve.cache_hit_ratio"] = float64(hits) / float64(analyze)
	values["serve.retries"] = float64(retries)
}
