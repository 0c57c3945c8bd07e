// Package serve is the network front door of the repository: an HTTP
// file-service daemon over a single lamassu.Mount, with per-tenant
// namespaces, connection-level backpressure and Prometheus export —
// the subsystem behind cmd/lamassud.
//
// # Tenants and cryptographic namespace isolation
//
// Every request authenticates with a static bearer token (Tenants,
// loaded from a keyfile-style config) that resolves to a tenant name.
// The server carves the mount's flat namespace by prefixing every
// logical name with "<tenant>/": tenant alice's "doc.txt" is stored as
// "alice/doc.txt". Served over a mount with EncryptNames (which
// cmd/lamassud always enables), the prefix is not a path check bolted
// onto handlers — it is a namespace carve enforced at the name layer:
// the tenant segment is deterministically encrypted with the zone's
// name key before it reaches the backing store, so two tenants writing
// the same logical name land distinct, mutually unaddressable backend
// objects, and no request a tenant can phrase resolves inside another
// tenant's subtree (names are prefixed before any lookup, and the
// encrypted backing names are not part of the request vocabulary).
//
// # Cancellation
//
// Each request's context flows through the mount into every backend
// call (the API v2 plumbing): a client that disconnects mid-write
// cancels the commit at a backend-write boundary, which is exactly a
// crash cut — the file stays recoverable, recovery converges, and a
// retried upload lands byte-identical.
//
// # Backpressure
//
// Admission is gated by a Limiter tied to the live queue depth
// (in-flight requests plus the engine's I/O-window occupancy). Overload is answered with 503 + Retry-After
// before the request touches the mount, so queue depth — and tail
// latency — stay bounded instead of stacking handler goroutines.
//
// # API
//
// Data plane (tenant bearer token; names are flat, '/' allowed,
// io/fs-valid):
//
//	GET    /v1/files/{name}            read (Range: bytes=a-b honored, 206)
//	HEAD   /v1/files/{name}            stat (Content-Length = logical size)
//	PUT    /v1/files/{name}            write whole file (body)
//	PUT    /v1/files/{name}?offset=N   write-range at byte offset N
//	POST   /v1/files/{name}?truncate=N truncate to N bytes
//	DELETE /v1/files/{name}            remove
//	GET    /v1/stat/{name}             stat as JSON
//	GET    /v1/list?dir=D&after=A&limit=N   paged directory listing
//
// Admin plane (admin bearer token): GET /admin/shards, GET
// /admin/rebalance, GET /admin/stats, POST /admin/scrub. Unauthenticated:
// GET /metrics (Prometheus text), GET /healthz.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"lamassu"
)

// DefaultListPageSize bounds one /v1/list page when the config does
// not say otherwise.
const DefaultListPageSize = 1000

// statusClientClosedRequest is the (nginx-conventional) status logged
// for requests whose client vanished mid-operation; the client never
// sees it.
const statusClientClosedRequest = 499

// Config assembles a Server.
type Config struct {
	// Mount is the served file system. The caller keeps ownership:
	// Server never closes it.
	Mount *lamassu.Mount
	// Tenants is the parsed bearer-token map.
	Tenants *Tenants
	// MaxInFlight bounds admitted requests plus engine queue depth
	// (see Limiter); 0 selects DefaultMaxInFlight.
	MaxInFlight int
	// QueueDepth overrides the engine-depth probe the limiter adds to
	// the in-flight count; nil selects the mount's I/O-window
	// occupancy.
	QueueDepth func() int64
	// ListPageSize caps entries per /v1/list page; 0 selects
	// DefaultListPageSize.
	ListPageSize int
	// MaxUploadBytes caps a single PUT body; 0 means unlimited. A PUT
	// whose Content-Length header declares more is refused with 413
	// before any body byte is read; a chunked body is cut off with 413
	// once it passes the cap.
	MaxUploadBytes int64
	// Logf, when non-nil, receives one line per request outcome worth
	// logging (errors and rejections only).
	Logf func(format string, args ...any)
}

// Server is the HTTP handler serving one mount. Create it with New;
// it is safe for concurrent use.
type Server struct {
	m        *lamassu.Mount
	tenants  *Tenants
	limiter  *Limiter
	mux      *http.ServeMux
	pageSize int
	maxBody  int64
	logf     func(string, ...any)

	statsMu sync.Mutex
	reqs    map[opKey]int64

	// bufs recycles the data plane's transfer buffers (*[]byte, so a
	// Put allocates nothing): a PUT's body and a GET's copy chunk. See
	// getBuf.
	bufs sync.Pool
}

// opKey labels one per-tenant operation counter.
type opKey struct{ tenant, op string }

// New builds a Server over cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Mount == nil {
		return nil, errors.New("serve: Config.Mount is required")
	}
	if cfg.Tenants == nil {
		return nil, errors.New("serve: Config.Tenants is required")
	}
	depth := cfg.QueueDepth
	if depth == nil {
		m := cfg.Mount
		depth = func() int64 { return engineDepth(m) }
	}
	s := &Server{
		m:        cfg.Mount,
		tenants:  cfg.Tenants,
		limiter:  NewLimiter(cfg.MaxInFlight, depth),
		pageSize: cfg.ListPageSize,
		maxBody:  cfg.MaxUploadBytes,
		logf:     cfg.Logf,
		reqs:     make(map[opKey]int64),
	}
	if s.pageSize <= 0 {
		s.pageSize = DefaultListPageSize
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /v1/list", s.tenantOp("list", s.handleList))
	mux.Handle("GET /v1/files/{name...}", s.tenantOp("read", s.handleRead))
	mux.Handle("PUT /v1/files/{name...}", s.tenantOp("write", s.handleWrite))
	mux.Handle("POST /v1/files/{name...}", s.tenantOp("truncate", s.handleTruncate))
	mux.Handle("DELETE /v1/files/{name...}", s.tenantOp("remove", s.handleRemove))
	mux.Handle("GET /v1/stat/{name...}", s.tenantOp("stat", s.handleStat))
	mux.Handle("GET /admin/shards", s.adminOp(s.handleShards))
	mux.Handle("GET /admin/rebalance", s.adminOp(s.handleRebalance))
	mux.Handle("GET /admin/stats", s.adminOp(s.handleAdminStats))
	mux.Handle("POST /admin/scrub", s.adminOp(s.handleScrub))
	s.mux = mux
	return s, nil
}

// engineDepth is the mount's live queue depth: the backend I/Os holding
// an I/O-window slot, at most the window's depth. The per-shard queue
// depths (ShardStats.QueueDepth) are left out: they count the leaf
// calls of those same I/Os again, once per owner of a replicated
// write, so on a replicated mount the sum could reach (R+1)× the window
// and shed every concurrent request.
func engineDepth(m *lamassu.Mount) int64 {
	return m.EngineStats().IOInFlight
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Limiter exposes the admission gate (benchmark and test
// introspection).
func (s *Server) Limiter() *Limiter { return s.limiter }

// RequestCounts snapshots the per-tenant operation counters, keyed
// "tenant/op".
func (s *Server) RequestCounts() map[string]int64 {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	out := make(map[string]int64, len(s.reqs))
	for k, v := range s.reqs {
		out[k.tenant+"/"+k.op] = v
	}
	return out
}

func (s *Server) countOp(tenant, op string) {
	s.statsMu.Lock()
	s.reqs[opKey{tenant, op}]++
	s.statsMu.Unlock()
}

// bearer extracts the bearer token; ok is false when the header is
// missing or not a Bearer credential.
func bearer(r *http.Request) (token string, ok bool) {
	h := r.Header.Get("Authorization")
	scheme, rest, found := strings.Cut(h, " ")
	if !found || !strings.EqualFold(scheme, "Bearer") {
		return "", false
	}
	token = strings.TrimSpace(rest)
	return token, token != ""
}

// tenantOp wraps a data-plane handler with bearer auth, the admission
// limiter and the per-tenant op counter. The resolved tenant rides the
// request context.
func (s *Server) tenantOp(op string, h func(http.ResponseWriter, *http.Request, string)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		token, ok := bearer(r)
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="lamassud"`)
			httpError(w, http.StatusUnauthorized, "missing or malformed bearer token")
			return
		}
		tenant, ok := s.tenants.Lookup(token)
		if !ok {
			if s.tenants.IsAdmin(token) {
				httpError(w, http.StatusForbidden, "admin token has no tenant namespace")
				return
			}
			w.Header().Set("WWW-Authenticate", `Bearer realm="lamassud"`)
			httpError(w, http.StatusUnauthorized, "unknown token")
			return
		}
		release, admitted := s.limiter.Acquire()
		if !admitted {
			w.Header().Set("Retry-After", strconv.Itoa(int(s.limiter.RetryAfter().Seconds())))
			httpError(w, http.StatusServiceUnavailable, "overloaded: queue depth at bound, retry later")
			s.logf("serve: 503 %s %s (tenant %s): queue at bound", r.Method, r.URL.Path, tenant)
			return
		}
		defer release()
		s.countOp(tenant, op)
		h(w, r, tenant)
	})
}

// adminOp wraps an admin handler with admin-token auth (no limiter:
// operators must be able to look at an overloaded server).
func (s *Server) adminOp(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		token, ok := bearer(r)
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="lamassud"`)
			httpError(w, http.StatusUnauthorized, "missing or malformed bearer token")
			return
		}
		if !s.tenants.IsAdmin(token) {
			if _, isTenant := s.tenants.Lookup(token); isTenant {
				httpError(w, http.StatusForbidden, "tenant token cannot use the admin plane")
				return
			}
			w.Header().Set("WWW-Authenticate", `Bearer realm="lamassud"`)
			httpError(w, http.StatusUnauthorized, "unknown token")
			return
		}
		s.countOp("admin", strings.TrimPrefix(r.URL.Path, "/admin/"))
		h(w, r)
	})
}

// storedName maps a tenant's logical name into the mount namespace,
// validating it first: io/fs-valid relative paths only, so the carved
// names stay inside the tenant's subtree and visible in Mount.FS.
func storedName(tenant, logical string) (string, error) {
	if logical == "" || logical == "." || !iofs.ValidPath(logical) {
		return "", fmt.Errorf("invalid file name %q (want a clean relative path)", logical)
	}
	if len(logical) > 4096 {
		return "", fmt.Errorf("file name longer than 4096 bytes")
	}
	return tenant + "/" + logical, nil
}

// errStatus maps a mount error onto an HTTP status.
func errStatus(err error) int {
	switch {
	// The io/fs view reports misses with fs.ErrNotExist, the mount
	// proper with the vfs sentinel; both are a 404.
	case lamassu.IsNotExist(err), errors.Is(err, iofs.ErrNotExist):
		return http.StatusNotFound
	case errors.Is(err, iofs.ErrInvalid):
		return http.StatusBadRequest
	case lamassu.IsCanceled(err):
		return statusClientClosedRequest
	case errors.Is(err, lamassu.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// httpError writes a one-line plain-text error body.
func httpError(w http.ResponseWriter, code int, msg string) {
	http.Error(w, msg, code)
}

// mountError reports a failed mount operation to the client.
func (s *Server) mountError(w http.ResponseWriter, r *http.Request, err error) {
	code := errStatus(err)
	if code >= http.StatusInternalServerError || code == statusClientClosedRequest {
		s.logf("serve: %d %s %s: %v", code, r.Method, r.URL.Path, err)
	}
	httpError(w, code, err.Error())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ---- data plane ----------------------------------------------------

// handleRead serves GET and HEAD on /v1/files/{name}: the whole file,
// or one byte range when the request carries a Range header
// (read-range; 206 with Content-Range). X-Lamassu-Size always carries
// the full logical size.
func (s *Server) handleRead(w http.ResponseWriter, r *http.Request, tenant string) {
	name, err := storedName(tenant, r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx := r.Context()
	f, err := s.m.OpenCtx(ctx, name)
	if err != nil {
		s.mountError(w, r, err)
		return
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		s.mountError(w, r, err)
		return
	}
	w.Header().Set("X-Lamassu-Size", strconv.FormatInt(size, 10))
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("Content-Type", "application/octet-stream")

	off, length := int64(0), size
	status := http.StatusOK
	if rng := r.Header.Get("Range"); rng != "" {
		off, length, err = parseRange(rng, size)
		if err != nil {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
			httpError(w, http.StatusRequestedRangeNotSatisfiable, err.Error())
			return
		}
		status = http.StatusPartialContent
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, size))
	}
	w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
	w.WriteHeader(status)
	if r.Method == http.MethodHead {
		return
	}
	bp := s.getBuf(int(min(length, readChunk)))
	defer s.putBuf(bp)
	buf := *bp
	for length > 0 {
		n := int64(len(buf))
		if n > length {
			n = length
		}
		read, err := f.ReadAtCtx(ctx, buf[:n], off)
		if read > 0 {
			if _, werr := w.Write(buf[:read]); werr != nil {
				return // client went away; nothing to repair on reads
			}
			off += int64(read)
			length -= int64(read)
		}
		if err != nil {
			if int64(read) == n && err == io.EOF {
				continue
			}
			s.logf("serve: read %s at %d: %v", name, off, err)
			return // headers are out; the truncated body signals the failure
		}
	}
}

// parseRange parses a single-range "bytes=a-b" header against size,
// returning the offset and length of a non-empty range inside the
// file. Suffix ranges ("bytes=-n") and open ends ("bytes=a-") are
// honored; multi-range requests are not, and neither is any range of
// an empty file (RFC 9110 §14.1.1: nothing there is satisfiable).
func parseRange(h string, size int64) (off, length int64, err error) {
	spec, ok := strings.CutPrefix(strings.TrimSpace(h), "bytes=")
	if !ok || strings.Contains(spec, ",") {
		return 0, 0, fmt.Errorf("unsupported Range %q (single bytes=a-b only)", h)
	}
	startS, endS, ok := strings.Cut(spec, "-")
	if !ok {
		return 0, 0, fmt.Errorf("malformed Range %q", h)
	}
	startS, endS = strings.TrimSpace(startS), strings.TrimSpace(endS)
	if startS == "" { // suffix: last N bytes
		n, ok := rangeBound(endS)
		if !ok || n == 0 {
			return 0, 0, fmt.Errorf("malformed Range %q", h)
		}
		if size == 0 {
			return 0, 0, fmt.Errorf("suffix Range %q of an empty file", h)
		}
		n = min(n, size)
		return size - n, n, nil
	}
	start, ok := rangeBound(startS)
	if !ok {
		return 0, 0, fmt.Errorf("malformed Range %q", h)
	}
	if start >= size {
		return 0, 0, fmt.Errorf("range start %d beyond size %d", start, size)
	}
	end := size - 1
	if endS != "" {
		e, ok := rangeBound(endS)
		if !ok || e < start {
			return 0, 0, fmt.Errorf("malformed Range %q", h)
		}
		end = min(e, end)
	}
	return start, end - start + 1, nil
}

// rangeBound parses one bound of a byte range: ASCII digits only (RFC
// 9110 allows no sign), within int64.
func rangeBound(s string) (int64, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	return n, err == nil
}

// handleWrite serves PUT /v1/files/{name}: the request body replaces
// the whole file, or — with ?offset=N — overwrites a byte range at N
// (the file is created either way; flat names need no mkdir). The
// write and the commits it triggers ride the request context, so a
// dropped client is a crash cut the §2.4 recovery repairs.
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request, tenant string) {
	name, err := storedName(tenant, r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var offset int64 = -1
	if q := r.URL.Query().Get("offset"); q != "" {
		offset, err = strconv.ParseInt(q, 10, 64)
		if err != nil || offset < 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad offset %q", q))
			return
		}
	}
	if s.maxBody > 0 && r.ContentLength > s.maxBody {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("declared body of %d bytes exceeds the %d-byte upload cap", r.ContentLength, s.maxBody))
		return
	}
	body := io.Reader(r.Body)
	if s.maxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	// The engine copies the body into its own blocks and both writes
	// sync before they return, so the buffer goes back to the pool
	// only once the write is done with it.
	bp := s.getBuf(bodyPresize(r.ContentLength))
	defer s.putBuf(bp)
	data, err := readBody(body, (*bp)[:0])
	*bp = data
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		// The body never fully arrived (client dropped): nothing was
		// written, nothing to do.
		httpError(w, statusClientClosedRequest, err.Error())
		return
	}
	ctx := r.Context()
	if offset < 0 {
		if err := s.m.WriteFileCtx(ctx, name, data); err != nil {
			s.mountError(w, r, err)
			return
		}
	} else if err := s.writeRange(ctx, name, data, offset); err != nil {
		s.mountError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// readChunk is the most a GET holds in memory: the file goes out in
// ReadAtCtx calls of at most this many bytes.
const readChunk = 1 << 20

// maxPooledBuf bounds the data plane's buffers. A PUT's declared
// Content-Length presizes its body buffer up to this many bytes; past
// that the buffer grows only as bytes arrive, so a header alone cannot
// make the server allocate a large buffer. A buffer that grew larger is
// left to the garbage collector instead of the pool.
const maxPooledBuf = 4 << 20

// chunkedPresize is the first buffer a PUT of unknown length (chunked
// transfer encoding) asks the pool for.
const chunkedPresize = 64 << 10

// getBuf returns a buffer of length n from the pool, or a fresh one
// when the pool's offering is shorter (the short one is dropped, so
// the pool drifts toward the sizes in use). Its contents are
// undefined.
func (s *Server) getBuf(n int) *[]byte {
	if bp, ok := s.bufs.Get().(*[]byte); ok && cap(*bp) >= n {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]byte, n)
	return &b
}

// putBuf returns bp to the pool unless it outgrew maxPooledBuf. The
// caller must hold no other reference to the buffer.
func (s *Server) putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		s.bufs.Put(bp)
	}
}

// bodyPresize is the buffer a PUT body is read into: its declared
// length plus one spare byte, so that the read that finds EOF lands
// without growing the buffer, trusted only up to maxPooledBuf.
func bodyPresize(contentLength int64) int {
	switch {
	case contentLength < 0:
		return chunkedPresize
	case contentLength >= maxPooledBuf:
		return maxPooledBuf
	}
	return int(contentLength) + 1
}

// readBody reads r to EOF, appending to b. It fills b's capacity before
// growing it, so a body that fits the presized buffer is read without
// a copy or an allocation.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// writeRange overwrites len(data) bytes at off, creating the file if
// absent, and syncs so the bytes are committed before the 204.
func (s *Server) writeRange(ctx context.Context, name string, data []byte, off int64) error {
	f, err := s.m.OpenRWCtx(ctx, name)
	if lamassu.IsNotExist(err) {
		f, err = s.m.CreateCtx(ctx, name)
	}
	if err != nil {
		return err
	}
	if _, err := f.WriteAtCtx(ctx, data, off); err != nil {
		_ = f.CloseCtx(ctx)
		return err
	}
	if err := f.SyncCtx(ctx); err != nil {
		_ = f.CloseCtx(ctx)
		return err
	}
	return f.CloseCtx(ctx)
}

// handleTruncate serves POST /v1/files/{name}?truncate=N.
func (s *Server) handleTruncate(w http.ResponseWriter, r *http.Request, tenant string) {
	name, err := storedName(tenant, r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	q := r.URL.Query().Get("truncate")
	if q == "" {
		httpError(w, http.StatusBadRequest, "POST on a file wants ?truncate=SIZE")
		return
	}
	size, err := strconv.ParseInt(q, 10, 64)
	if err != nil || size < 0 {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad truncate size %q", q))
		return
	}
	ctx := r.Context()
	f, err := s.m.OpenRWCtx(ctx, name)
	if err != nil {
		s.mountError(w, r, err)
		return
	}
	if err := f.TruncateCtx(ctx, size); err != nil {
		_ = f.CloseCtx(ctx)
		s.mountError(w, r, err)
		return
	}
	if err := f.SyncCtx(ctx); err != nil {
		_ = f.CloseCtx(ctx)
		s.mountError(w, r, err)
		return
	}
	if err := f.CloseCtx(ctx); err != nil {
		s.mountError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRemove serves DELETE /v1/files/{name}.
func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request, tenant string) {
	name, err := storedName(tenant, r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.m.RemoveCtx(r.Context(), name); err != nil {
		s.mountError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStat serves GET /v1/stat/{name} as JSON.
func (s *Server) handleStat(w http.ResponseWriter, r *http.Request, tenant string) {
	logical := r.PathValue("name")
	name, err := storedName(tenant, logical)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	size, err := s.m.StatCtx(r.Context(), name)
	if err != nil {
		s.mountError(w, r, err)
		return
	}
	writeJSON(w, struct {
		Name string `json:"name"`
		Size int64  `json:"size"`
	}{logical, size})
}

// ListEntry is one /v1/list row: a file (with its logical size, the
// Stat result over the wire) or a synthesized directory.
type ListEntry struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
	Dir  bool   `json:"dir,omitempty"`
}

// ListPage is the /v1/list response document.
type ListPage struct {
	Dir     string      `json:"dir"`
	Entries []ListEntry `json:"entries"`
	// Truncated reports that more entries follow; Next is the cursor
	// to pass as ?after= for the following page.
	Truncated bool   `json:"truncated,omitempty"`
	Next      string `json:"next,omitempty"`
}

// handleList serves GET /v1/list?dir=D&after=A&limit=N: one page of
// the tenant's directory listing through the mount's io/fs view, using
// the view's own paged ReadDir. The tenant prefix is the subtree root,
// so a tenant can list only its own carve; an empty namespace lists as
// an empty root, not an error.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request, tenant string) {
	q := r.URL.Query()
	dir := q.Get("dir")
	if dir == "" {
		dir = "."
	}
	if !iofs.ValidPath(dir) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid dir %q", dir))
		return
	}
	limit := s.pageSize
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q", ls))
			return
		}
		if n < limit {
			limit = n
		}
	}
	after := q.Get("after")

	root := tenant
	if dir != "." {
		root = tenant + "/" + dir
	}
	df, err := s.m.FS().Open(root)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) && dir == "." {
			// Nothing written yet: an empty namespace, not a 404.
			writeJSON(w, ListPage{Dir: dir, Entries: []ListEntry{}})
			return
		}
		s.mountError(w, r, err)
		return
	}
	defer df.Close()
	rd, ok := df.(iofs.ReadDirFile)
	if !ok {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("%q is a file, not a directory", dir))
		return
	}

	// Page through the view's ReadDir pager (entries arrive sorted),
	// discarding up to the cursor, keeping at most limit, then probing
	// one entry further to learn whether the page is the last.
	page := ListPage{Dir: dir, Entries: []ListEntry{}}
	for len(page.Entries) < limit {
		batch, err := rd.ReadDir(limit - len(page.Entries))
		for _, e := range batch {
			if after != "" && e.Name() <= after {
				continue
			}
			entry := ListEntry{Name: e.Name(), Dir: e.IsDir()}
			if info, ierr := e.Info(); ierr == nil && !e.IsDir() {
				entry.Size = info.Size()
			}
			page.Entries = append(page.Entries, entry)
		}
		if err == io.EOF {
			writeJSON(w, page)
			return
		}
		if err != nil {
			s.mountError(w, r, err)
			return
		}
	}
	if more, err := rd.ReadDir(1); err == nil && len(more) > 0 {
		page.Truncated = true
		page.Next = page.Entries[len(page.Entries)-1].Name
	}
	writeJSON(w, page)
}

// ---- admin plane ---------------------------------------------------

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Stats  []lamassu.ShardStat   `json:"stats,omitempty"`
		Health []lamassu.ShardHealth `json:"health,omitempty"`
	}{s.m.ShardStats(), s.m.ShardHealth()})
}

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.m.RebalanceStatus())
}

func (s *Server) handleAdminStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Engine  lamassu.EngineStats `json:"engine"`
		Cache   lamassu.CacheStats  `json:"cache"`
		Pool    lamassu.PoolStats   `json:"pool"`
		Limiter LimiterStats        `json:"limiter"`
	}{s.m.EngineStats(), s.m.CacheStats(), s.m.PoolStats(), s.limiter.Stats()})
}

func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	stats, err := s.m.Scrub(r.Context())
	if err != nil {
		code := http.StatusConflict
		if lamassu.IsCanceled(err) {
			code = statusClientClosedRequest
		}
		httpError(w, code, err.Error())
		return
	}
	writeJSON(w, stats)
}
