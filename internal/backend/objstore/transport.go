// Package objstore implements backend.Store over an S3-style object
// API: ranged GET, single and multipart PUT, paginated LIST, HEAD and
// delete. The object API is abstracted behind Transport so the same
// adapter serves an in-process test server today (Memserver) and a
// real wire client later.
//
// The adapter is written for high-RTT stores. Every WriteAt is pushed
// eagerly as one staged multipart part — so the engine's I/O window
// (Options.IOWindow) can keep many parts in flight — but nothing
// becomes visible remotely until Sync (or Close) commits the staged
// parts in a single atomic Complete. A handle abandoned without
// Sync/Close therefore loses exactly the writes staged since the last
// barrier: a crash cut at the head of the batch, which is one of the
// cut points the §2.4 recovery sweep already covers. Reads are served
// from the committed object via ranged GETs with the staged parts
// overlaid locally, so read-your-writes holds within a handle.
//
// Transport errors are marked through the backend taxonomy: a missing
// key maps to backend.ErrNotExist (fatal), context cancellation passes
// through untouched, and everything else is marked Retryable — an
// object API call is idempotent here, so backend.AttemptStore composes
// directly outside this package.
package objstore

import (
	"context"
	"errors"
)

// ErrNoSuchKey is the transport-level "object does not exist" error.
// The store adapter maps it to backend.ErrNotExist.
var ErrNoSuchKey = errors.New("objstore: no such key")

// ErrNoSuchUpload is returned by part/complete/abort calls naming an
// upload ID the server does not know (already completed or aborted).
var ErrNoSuchUpload = errors.New("objstore: no such upload")

// Transport is the S3-style object API the store adapter drives. All
// calls take a context; a nil context means "not cancelable" exactly
// as in the backend ctx helpers.
//
// Multipart uploads are block-blob shaped: parts are addressed by
// byte offset within the object, may overlap (later-put parts win),
// and stay invisible until Complete atomically overlays them — in put
// order — onto the object's previous content and truncates or
// zero-extends the result to the given size. Abort discards the
// staged parts.
type Transport interface {
	// GetRange reads n bytes at off from the committed object. The
	// returned slice may be shorter than n if the object ends first.
	GetRange(ctx context.Context, key string, off, n int64) ([]byte, error)

	// Put atomically replaces the whole object.
	Put(ctx context.Context, key string, data []byte) error

	// CreateUpload opens a multipart upload session for key.
	CreateUpload(ctx context.Context, key string) (uploadID string, err error)

	// PutPart stages data at byte offset off under the upload session.
	PutPart(ctx context.Context, key, uploadID string, off int64, data []byte) error

	// Complete applies the session's parts to the object and sets its
	// size, atomically. It creates the object if it did not exist.
	Complete(ctx context.Context, key, uploadID string, size int64) error

	// Abort discards the session. Aborting an unknown session is a
	// no-op (the complete/abort race is resolved server-side).
	Abort(ctx context.Context, key, uploadID string) error

	// Head returns the committed size of the object.
	Head(ctx context.Context, key string) (int64, error)

	// List returns up to max keys lexically after startAfter, in
	// sorted order, and whether more pages remain.
	List(ctx context.Context, startAfter string, max int) (keys []string, more bool, err error)

	// Delete removes the object.
	Delete(ctx context.Context, key string) error

	// Copy duplicates src's committed content under dst (Rename is
	// Copy then Delete; object APIs have no native rename).
	Copy(ctx context.Context, src, dst string) error
}
