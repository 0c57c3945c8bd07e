package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"lamassu"
	"lamassu/internal/backend"
	"lamassu/internal/backend/objstore"
	"lamassu/internal/serve"
)

// sizes are the op counts and data sizes of one round. They are
// constants of the benchmark — chosen once so that a round of each
// workload takes about four seconds at the commit that added it, on two
// cores, and never scaled at run time — and exist as a struct only so
// the unit tests can run the same code in a fraction of a second.
type sizes struct {
	seqFileBytes int64 // local-seq: one file per client
	seqOpBytes   int
	seqPasses    int // write-then-read passes over the file per round

	randFileBytes   int64 // local-rand: one file per client
	randOps         int   // per client per round
	randCacheBlocks int

	objFileBytes int64 // objstore-seq-z2: one file per client
	objOpBytes   int

	wireObjects    int // wire-objects: objects per client
	wireObjBytes   int
	wireRangeBytes int
	wirePasses     int // cycles over the objects per round
}

var fullSizes = sizes{
	seqFileBytes: 64 << 20, seqOpBytes: 1 << 20, seqPasses: 9,
	randFileBytes: 64 << 20, randOps: 100000, randCacheBlocks: 1024,
	objFileBytes: 5 << 20, objOpBytes: 256 << 10,
	wireObjects: 64, wireObjBytes: 1 << 20, wireRangeBytes: 64 << 10, wirePasses: 5,
}

var tinySizes = sizes{
	seqFileBytes: 2 << 20, seqOpBytes: 256 << 10, seqPasses: 2,
	randFileBytes: 1 << 20, randOps: 60, randCacheBlocks: 16,
	objFileBytes: 512 << 10, objOpBytes: 128 << 10,
	wireObjects: 4, wireObjBytes: 128 << 10, wireRangeBytes: 16 << 10, wirePasses: 2,
}

// Link model of every objstore-seq-z2 leaf: a 1 Gb/s link, 2 ms away.
var objLink = objstore.ServerParams{RTT: 2 * time.Millisecond, WriteRTT: 2 * time.Millisecond, Bandwidth: 125e6}

const (
	objLeaves   = 4
	objReplicas = 2
	parallelism = 2
)

// stackOpts selects the two ways one workload's stack is built: with
// the benchmark's span recorder and the mount's own latency collection
// (the traced half of a traced run), or with neither.
type stackOpts struct {
	seed    int64
	clients int
	sz      sizes
	rec     *recorder // nil: counters only
}

// env is one built stack plus the inputs and expected outputs of its
// workload.
type env struct {
	name    string
	mount   *lamassu.Mount
	leaves  []*leafStore
	servers []*objstore.Memserver // objstore leaves only
	srv     *serve.Server         // wire-objects only
	rec     *recorder

	// src[v][f] is version v of the source bytes of file (or object) f.
	// The engine skips a block whose new content equals what is stored,
	// so a write in pass p carries version p mod len(src): every
	// overwrite changes every block it touches.
	src [][][]byte
	// model, when set (local-rand), is the current expected content per
	// file: client c alone touches file c, applies each of its writes
	// to the model and checks each of its reads against it.
	model    [][]byte
	names    []string // mount-level name per file, for Mount.Check
	logical  int64    // logical bytes at rest after a round
	phases   []phase
	passes   int // passes over the phases that make one round
	compress bool

	// newClient builds client c's executor; its close releases handles
	// and connections.
	newClient func(c int) (*client, error)
	// beforePass runs untimed before every pass (objstore-seq-z2 removes
	// its files so every pass is a fresh stream).
	beforePass func() error
	closers    []func() error
}

func (e *env) close() error {
	var first error
	for i := len(e.closers) - 1; i >= 0; i-- {
		if err := e.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// client executes ops for one closed-loop load goroutine. do performs
// one op — a write op writes payload — and returns the bytes a read
// produced (valid until the next call); timing is the caller's. callWrite/callSync split a write op
// into its WriteAt and Sync calls for the mount.* per-layer timings.
type client struct {
	do    func(ctx context.Context, o *op, payload []byte) ([]byte, error)
	close func() error

	callWrite, callSync time.Duration
}

// payload returns the bytes a write op of the given pass writes; it is
// also what a read of that range must return once the pass's writes of
// it are done.
func (e *env) payload(o *op, pass int) []byte {
	return e.src[pass%len(e.src)][o.file][o.src : o.src+int64(o.n)]
}

// genVersions generates `versions` independent versions of n files.
func genVersions(versions, n int, bytes int64, alpha, compressibility float64, seed int64) ([][][]byte, error) {
	out := make([][][]byte, versions)
	for v := range out {
		out[v] = make([][]byte, n)
		for i := range out[v] {
			b, err := genFile(bytes, alpha, compressibility, fileSeed(seed, v*n+i))
			if err != nil {
				return nil, err
			}
			out[v][i] = b
		}
	}
	return out, nil
}

func mountOptions(rec *recorder, extra ...lamassu.Option) []lamassu.Option {
	opts := append([]lamassu.Option{lamassu.WithParallelism(parallelism)}, extra...)
	if rec != nil {
		opts = append(opts, lamassu.WithLatencyCollection())
	}
	return opts
}

// buildWorkload runs the setup step of the named workload: generate the
// data, build the stack, preload.
func buildWorkload(name string, o stackOpts) (*env, error) {
	switch name {
	case "local-seq":
		return buildLocalSeq(o)
	case "local-rand":
		return buildLocalRand(o)
	case "objstore-seq-z2":
		return buildObjstoreSeq(o)
	case "wire-objects":
		return buildWireObjects(o)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---- streaming executors (local-seq, objstore-seq-z2) ----------------

// streamClient moves one file through a Mount handle: open, positional
// ops, close.
func streamClient(e *env) func(int) (*client, error) {
	return func(c int) (*client, error) {
		var f lamassu.File
		buf := make([]byte, maxOpBytes(e.phases))
		cl := &client{}
		cl.do = func(ctx context.Context, o *op, payload []byte) ([]byte, error) {
			name := e.names[o.file]
			switch {
			case o.aux == auxOpen && o.kind == kWriteAux:
				var err error
				f, err = e.mount.CreateCtx(ctx, name)
				return nil, err
			case o.aux == auxOpen:
				var err error
				f, err = e.mount.OpenCtx(ctx, name)
				return nil, err
			case o.aux == auxClose:
				err := f.CloseCtx(ctx)
				f = nil
				return nil, err
			case o.kind == kWrite:
				_, err := f.WriteAtCtx(ctx, payload, o.off)
				return nil, err
			default:
				n, err := f.ReadAtCtx(ctx, buf[:o.n], o.off)
				if err == io.EOF && n == int(o.n) {
					err = nil
				}
				return buf[:n], err
			}
		}
		cl.close = func() error {
			if f != nil {
				return f.Close()
			}
			return nil
		}
		return cl, nil
	}
}

func maxOpBytes(phases []phase) int {
	m := 0
	for _, p := range phases {
		for _, ops := range p.ops {
			for _, o := range ops {
				if int(o.n) > m {
					m = int(o.n)
				}
			}
		}
	}
	return m
}

func buildLocalSeq(o stackOpts) (*env, error) {
	src, err := genVersions(2, o.clients, o.sz.seqFileBytes, 0.5, 0, o.seed)
	if err != nil {
		return nil, err
	}
	keys, err := seededKeys(o.seed)
	if err != nil {
		return nil, err
	}
	leaf := newLeaf(backend.NewMemStore(), o.rec)
	m, err := lamassu.New(leaf, keys, mountOptions(o.rec)...)
	if err != nil {
		return nil, err
	}
	e := &env{name: "local-seq", mount: m, leaves: []*leafStore{leaf}, rec: o.rec, src: src,
		logical: int64(o.clients) * o.sz.seqFileBytes, passes: o.sz.seqPasses,
		phases: streamPhases(o.clients, o.sz.seqFileBytes, o.sz.seqOpBytes)}
	for c := 0; c < o.clients; c++ {
		e.names = append(e.names, fmt.Sprintf("stream-%d", c))
	}
	e.newClient = streamClient(e)
	e.closers = append(e.closers, m.Close)
	return e, nil
}

func buildObjstoreSeq(o stackOpts) (*env, error) {
	src, err := genVersions(1, o.clients, o.sz.objFileBytes, 0.5, 2.0, o.seed)
	if err != nil {
		return nil, err
	}
	keys, err := seededKeys(o.seed)
	if err != nil {
		return nil, err
	}
	e := &env{name: "objstore-seq-z2", rec: o.rec, src: src, compress: true,
		logical: int64(o.clients) * o.sz.objFileBytes, passes: 1,
		phases: streamPhases(o.clients, o.sz.objFileBytes, o.sz.objOpBytes)}
	stores := make([]lamassu.Storage, objLeaves)
	for i := range stores {
		ms := objstore.NewMemserver(objLink, nil)
		leaf := newLeaf(objstore.New(&tracedTransport{inner: ms, rec: o.rec, params: objLink}), o.rec)
		leaf.overTransport = true
		e.servers = append(e.servers, ms)
		e.leaves = append(e.leaves, leaf)
		stores[i] = leaf
	}
	stripe, err := lamassu.SegmentStripeBytes(nil, 1<<20)
	if err != nil {
		return nil, err
	}
	sharded, err := lamassu.NewShardedStorage(stores, &lamassu.ShardOptions{Replicas: objReplicas, StripeBytes: stripe})
	if err != nil {
		return nil, err
	}
	m, err := lamassu.New(sharded, keys, mountOptions(o.rec,
		lamassu.WithCompression(), lamassu.WithIOWindow(32), lamassu.WithRetry(lamassu.RetryPolicy{}))...)
	if err != nil {
		return nil, err
	}
	e.mount = m
	for c := 0; c < o.clients; c++ {
		e.names = append(e.names, fmt.Sprintf("stream-%d", c))
	}
	e.newClient = streamClient(e)
	// Every pass streams into a fresh object: it is the write of new
	// compressible data that BENCH_10 found slow, not the overwrite.
	e.beforePass = func() error {
		for _, n := range e.names {
			if err := m.Remove(n); err != nil && !lamassu.IsNotExist(err) {
				return err
			}
		}
		return nil
	}
	e.closers = append(e.closers, m.Close)
	return e, nil
}

// ---- local-rand --------------------------------------------------------

func buildLocalRand(o stackOpts) (*env, error) {
	src, err := genVersions(2, o.clients, o.sz.randFileBytes, 0.5, 0, o.seed)
	if err != nil {
		return nil, err
	}
	keys, err := seededKeys(o.seed)
	if err != nil {
		return nil, err
	}
	leaf := newLeaf(backend.NewMemStore(), o.rec)
	m, err := lamassu.New(leaf, keys, mountOptions(o.rec, lamassu.WithCache(o.sz.randCacheBlocks))...)
	if err != nil {
		return nil, err
	}
	e := &env{name: "local-rand", mount: m, leaves: []*leafStore{leaf}, rec: o.rec, src: src,
		logical: int64(o.clients) * o.sz.randFileBytes, passes: 1,
		phases: randPhase(o.seed, o.clients, o.sz.randFileBytes, o.sz.randOps)}
	e.closers = append(e.closers, m.Close)
	for i, b := range src[0] {
		name := fmt.Sprintf("rand-%d", i)
		e.names = append(e.names, name)
		e.model = append(e.model, bytes.Clone(b))
		if err := m.WriteFile(name, b); err != nil {
			return nil, errors.Join(err, e.close())
		}
	}
	// Client c holds one read-write handle on file c for the whole run.
	e.newClient = func(c int) (*client, error) {
		f, err := m.OpenRW(e.names[c])
		if err != nil {
			return nil, err
		}
		cl := &client{close: f.Close}
		buf := make([]byte, maxOpBytes(e.phases))
		cl.do = func(ctx context.Context, o *op, payload []byte) ([]byte, error) {
			if o.kind == kRead {
				n, err := f.ReadAtCtx(ctx, buf[:o.n], o.off)
				if err == io.EOF && n == int(o.n) {
					err = nil
				}
				return buf[:n], err
			}
			t0 := time.Now()
			_, err := f.WriteAtCtx(ctx, payload, o.off)
			t1 := time.Now()
			cl.callWrite = t1.Sub(t0)
			if err != nil {
				return nil, err
			}
			err = f.SyncCtx(ctx)
			cl.callSync = time.Since(t1)
			return nil, err
		}
		return cl, nil
	}
	return e, nil
}

// ---- wire-objects ------------------------------------------------------

const opHeader = "X-Bench-Op"

func tenantName(c int) string  { return fmt.Sprintf("t%d", c) }
func tenantToken(c int) string { return fmt.Sprintf("bench-token-%d-0123456789abcdef", c) }
func objectName(file int32) string {
	return fmt.Sprintf("obj/%04d", file)
}

// buildWireMount builds the mount wire-objects serves; the traced run
// builds a second, identically configured one as the in-process twin.
func buildWireMount(o stackOpts) (*lamassu.Mount, *leafStore, error) {
	keys, err := seededKeys(o.seed)
	if err != nil {
		return nil, nil, err
	}
	leaf := newLeaf(backend.NewMemStore(), o.rec)
	m, err := lamassu.New(leaf, keys, mountOptions(o.rec, lamassu.WithEncryptedNames(), lamassu.WithCache(1024))...)
	return m, leaf, err
}

func buildWireObjects(o stackOpts) (*env, error) {
	// One Synthetic file per client and version, cut into objects.
	perClient, err := genVersions(2, o.clients, int64(o.sz.wireObjects)*int64(o.sz.wireObjBytes), 0.5, 0, o.seed)
	if err != nil {
		return nil, err
	}
	m, leaf, err := buildWireMount(o)
	if err != nil {
		return nil, err
	}
	e := &env{name: "wire-objects", mount: m, leaves: []*leafStore{leaf}, rec: o.rec,
		logical: int64(o.clients) * int64(o.sz.wireObjects) * int64(o.sz.wireObjBytes), passes: o.sz.wirePasses,
		phases: objectPhase(o.seed, o.clients, o.sz.wireObjects, o.sz.wireObjBytes, o.sz.wireRangeBytes)}
	e.closers = append(e.closers, m.Close)
	var conf bytes.Buffer
	e.src = make([][][]byte, len(perClient))
	for c := 0; c < o.clients; c++ {
		fmt.Fprintf(&conf, "tenant: %s %s\n", tenantName(c), tenantToken(c))
		for i := 0; i < o.sz.wireObjects; i++ {
			for v := range perClient {
				e.src[v] = append(e.src[v], perClient[v][c][i*o.sz.wireObjBytes:(i+1)*o.sz.wireObjBytes])
			}
			e.names = append(e.names, tenantName(c)+"/"+objectName(int32(c*o.sz.wireObjects+i)))
		}
	}
	tenants, err := serve.ParseTenants(conf.Bytes())
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	srv, err := serve.New(serve.Config{Mount: m, Tenants: tenants})
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	e.srv = srv
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	hs := &http.Server{Handler: handlerSpans(srv, o.rec)}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(lis) }()
	e.closers = append(e.closers, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	})
	base := "http://" + lis.Addr().String()
	e.newClient = func(c int) (*client, error) { return wireClient(e, base, c), nil }
	// Preload: every object exists before the first round, so the first
	// PUT of a round is an overwrite like all the others.
	for i, name := range e.names {
		if err := m.WriteFile(name, e.src[0][i]); err != nil {
			return nil, errors.Join(err, e.close())
		}
	}
	return e, nil
}

// handlerSpans wraps the server's handler so that, while the recorder
// is on, the span of the client op named in the request header becomes
// the parent of everything the request causes.
func handlerSpans(h http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		ctx, sp := rec.begin(withParent(r.Context(), parent), spanHandler, nRequest)
		h.ServeHTTP(w, r.WithContext(ctx))
		sp.end(r.ContentLength, 0)
	})
}

// wireClient is one tenant's HTTP client: one keep-alive connection,
// every response read to the end.
func wireClient(e *env, base string, c int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	hc := &http.Client{Transport: tr}
	auth := "Bearer " + tenantToken(c)
	var body bytes.Buffer
	cl := &client{close: func() error { tr.CloseIdleConnections(); return nil }}
	cl.do = func(ctx context.Context, o *op, payload []byte) ([]byte, error) {
		method, url := http.MethodGet, base+"/v1/files/"+objectName(o.file)
		var rd io.Reader
		switch o.kind {
		case kWrite:
			method, rd = http.MethodPut, bytes.NewReader(payload)
		case kStat:
			url = base + "/v1/stat/" + objectName(o.file)
		case kList:
			url = base + "/v1/list?dir=obj"
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Authorization", auth)
		if o.kind == kRangeGet {
			req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", o.off, o.off+int64(o.n)-1))
		}
		if id := parentOf(ctx); id != 0 {
			req.Header.Set(opHeader, strconv.FormatUint(id, 10))
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body.Reset()
		if _, err := body.ReadFrom(resp.Body); err != nil {
			return nil, err
		}
		if resp.StatusCode/100 != 2 {
			return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(body.Bytes()))
		}
		return body.Bytes(), nil
	}
	return cl
}

// twinClient runs the wire op list straight on a mount, the way the
// server's handlers call it: the in-process side of the wire gap.
func twinClient(e *env, m *lamassu.Mount) *client {
	buf := make([]byte, maxOpBytes(e.phases))
	cl := &client{close: func() error { return nil }}
	cl.do = func(ctx context.Context, o *op, payload []byte) ([]byte, error) {
		name := e.names[o.file]
		switch o.kind {
		case kWrite:
			return nil, m.WriteFileCtx(ctx, name, payload)
		case kStat:
			_, err := m.StatCtx(ctx, name)
			return nil, err
		case kList:
			_, err := m.ListCtx(ctx)
			return nil, err
		}
		f, err := m.OpenCtx(ctx, name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		n, err := f.ReadAtCtx(ctx, buf[:o.n], o.off)
		if err == io.EOF && n == int(o.n) {
			err = nil
		}
		return buf[:n], err
	}
	return cl
}
