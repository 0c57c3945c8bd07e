// Command lamassud serves a Lamassu mount over HTTP: the network
// front door for multi-tenant deployments. It opens one mount over a
// backing directory (or a sharded set of them), loads a static
// bearer-token tenant map, and serves the internal/serve file API —
// per-tenant namespaces isolated cryptographically at the name layer
// (EncryptNames is always on), per-request cancellation riding the
// context plumbing (a dropped client is a crash cut the engine
// recovers from), admission backpressure tied to live engine queue
// depth, and Prometheus metrics on /metrics.
//
// Usage:
//
//	lamassu keygen -keyfile zone.keys
//	lamassud -addr :8484 -store /mnt/backing -keyfile zone.keys -tenants tenants.conf
//	lamassud -addr :8484 -shards /d1,/d2,/d3 -replicas 2 -keyfile zone.keys -tenants tenants.conf
//
// The tenant file holds one `tenant: NAME TOKEN` line per tenant and
// an optional `admin: TOKEN` line (see internal/serve). With -tls-cert
// and -tls-key the daemon serves HTTPS and negotiates HTTP/2 via ALPN;
// plain listeners speak HTTP/1.1.
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests drain
// (bounded by -drain), then the mount closes.
package main

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"lamassu"
	"lamassu/internal/keyfile"
	"lamassu/internal/serve"
)

func main() {
	if err := run(os.Args[1:], nil, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lamassud:", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored for tests: ready (when non-nil) is
// called with the bound address once the listener is accepting, and
// run returns after a graceful shutdown completes.
func run(argv []string, ready func(addr string), logw io.Writer) error {
	fs := flag.NewFlagSet("lamassud", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", "127.0.0.1:8484", "listen address")
	store := fs.String("store", "", "backing directory holding encrypted files")
	shards := fs.String("shards", "", "comma-separated backing directories to shard across (alternative to -store)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per shard on the placement ring (0 = default; must match across runs)")
	stripeKB := fs.Int64("stripe", 0, "shard stripe unit in KiB (0 = whole-file placement; must match across runs)")
	replicas := fs.Int("replicas", 0, "replica copies per key on a sharded store (0/1 = single copy)")
	keyPath := fs.String("keyfile", "", "file with hex inner+outer keys (create with `lamassu keygen`)")
	tenantsPath := fs.String("tenants", "", "tenant bearer-token map (`tenant: NAME TOKEN` lines, optional `admin: TOKEN`)")
	parallelism := fs.Int("parallelism", 0, "per-block CPU worker-pool width (0 = GOMAXPROCS)")
	cacheBlocks := fs.Int("cache", 1024, "verified-plaintext block-cache capacity in blocks")
	ioWindow := fs.Int("iowindow", 0, "bound on concurrently outstanding backend I/Os (0 = 32); above 1, commits run behind the writer")
	compress := fs.Bool("compress", false, "compress blocks before encryption on new writes (deterministic; dedup preserved)")
	maxInFlight := fs.Int("max-inflight", 0, "admission bound: in-flight requests + engine queue depth (0 = default)")
	maxUploadMB := fs.Int64("max-upload-mb", 0, "largest accepted PUT body in MiB (0 = unlimited)")
	drain := fs.Duration("drain", serve.DefaultDrainTimeout, "graceful-shutdown drain deadline for in-flight requests")
	tlsCert := fs.String("tls-cert", "", "TLS certificate file (with -tls-key: serve HTTPS/HTTP-2)")
	tlsKey := fs.String("tls-key", "", "TLS private-key file")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	logger := log.New(logw, "lamassud: ", log.LstdFlags)

	if *keyPath == "" {
		return errors.New("-keyfile is required")
	}
	if *tenantsPath == "" {
		return errors.New("-tenants is required")
	}
	if (*store == "") == (*shards == "") {
		return errors.New("exactly one of -store or -shards is required")
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		return errors.New("-tls-cert and -tls-key must be given together")
	}

	pair, err := keyfile.Load(*keyPath)
	if err != nil {
		return err
	}
	keys := lamassu.KeyPair{Inner: pair.Inner, Outer: pair.Outer}
	tenants, err := serve.LoadTenants(*tenantsPath)
	if err != nil {
		return err
	}

	var backing lamassu.Storage
	if *store != "" {
		if backing, err = lamassu.NewDirStorage(*store); err != nil {
			return err
		}
	} else {
		var stores []lamassu.Storage
		for _, dir := range strings.Split(*shards, ",") {
			dir = strings.TrimSpace(dir)
			if dir == "" {
				continue
			}
			st, err := lamassu.NewDirStorage(dir)
			if err != nil {
				return err
			}
			stores = append(stores, st)
		}
		backing, err = lamassu.NewShardedStorage(stores, &lamassu.ShardOptions{
			Vnodes:      *vnodes,
			StripeBytes: *stripeKB * 1024,
			Replicas:    *replicas,
		})
		if err != nil {
			return err
		}
	}

	// EncryptNames is non-negotiable: it is the tenant-isolation layer.
	// CollectLatency feeds /metrics.
	opts := []lamassu.Option{
		lamassu.WithEncryptedNames(),
		lamassu.WithLatencyCollection(),
		lamassu.WithCache(*cacheBlocks),
		lamassu.WithParallelism(*parallelism),
		lamassu.WithIOWindow(*ioWindow),
	}
	if *compress {
		opts = append(opts, lamassu.WithCompression())
	}
	m, err := lamassu.New(backing, keys, opts...)
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		Mount:          m,
		Tenants:        tenants,
		MaxInFlight:    *maxInFlight,
		MaxUploadBytes: *maxUploadMB << 20,
		Logf:           logger.Printf,
	})
	if err != nil {
		_ = m.Close()
		return err
	}

	var tlsConf *tls.Config
	if *tlsCert != "" {
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			_ = m.Close()
			return err
		}
		// "h2" first: http.Server handles HTTP/2 natively once ALPN
		// negotiates it.
		tlsConf = &tls.Config{Certificates: []tls.Certificate{cert}, NextProtos: []string{"h2", "http/1.1"}}
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = m.Close()
		return err
	}
	scheme := "http"
	if tlsConf != nil {
		scheme = "https"
	}
	logger.Printf("serving %d tenant(s) on %s://%s (admin plane: %v)",
		len(tenants.Names()), scheme, lis.Addr(), tenants.HasAdmin())
	if ready != nil {
		ready(lis.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	err = serve.Graceful(ctx, lis, srv, serve.GracefulConfig{
		DrainTimeout: *drain,
		TLS:          tlsConf,
		Logf:         logger.Printf,
	})
	if err != nil {
		logger.Printf("shutdown: %v", err)
	}
	// Requests are drained (or hard-cut past the deadline — a crash cut
	// the next open recovers); now the engine can go.
	if cerr := m.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil {
		logger.Printf("clean shutdown")
	}
	return err
}
