package must

import (
	"context"
	"io"
)

// Service is the full engine surface shared by Engine and
// DurableService: everything a serving layer needs to ingest, maintain,
// search, and snapshot a corpus without caring how it is partitioned or
// whether its writes are logged.
type Service interface {
	// Schema and lifecycle.
	Schema() Schema
	Build() error
	Rebuild() error
	Stats() (Stats, error)
	// EnableQuantization attaches an SQ8 shadow store to every shard and
	// routes searches over it with an exact re-rank of the top rerankK
	// candidates (0 = 4·k). Quantized reports the setting.
	EnableQuantization(rerankK int) error
	Quantized() bool

	// Shards. Every engine has S ≥ 1 shards; RebuildShard compacts one
	// at a time, bounding rebuild work and transient memory to a single
	// shard. The maintenance manager paces rebuilds through it.
	ShardCount() int
	RebuildShard(j int) error
	ShardStats() []ShardInfo

	// Mutations. Epoch is a cache-invalidation key: it changes on every
	// result-visible mutation (it is the sum of the per-shard epochs,
	// which is equally monotone).
	Epoch() uint64
	Len() int
	Deleted() int
	Insert(v NamedVectors) (int64, error)
	InsertObject(o Object) (int64, error)
	Delete(id int64) error
	Object(id int64) (NamedVectors, error)

	// Admission. SetAdmission installs (or clears, with the zero value)
	// the write-path gate: once configured, Insert/InsertObject/Delete
	// past the budget fail fast with ErrOverloaded instead of queueing.
	// Reads are never gated. WritesShed counts refusals since creation.
	//
	// A DurableService must be configured only after OpenDurable returns:
	// WAL replay re-applies already-acked writes through this same path,
	// and shedding one would silently drop durable data.
	SetAdmission(o AdmissionOptions) error
	WritesShed() uint64

	// Weights.
	Weights() Weights
	SetWeights(w Weights) error
	LearnWeights(queries []NamedVectors, positives []int64, cfg WeightConfig) (Weights, error)

	// Search.
	Search(ctx context.Context, q Query) (*Response, error)
	SearchEach(ctx context.Context, queries []Query, workers int) ([]*Response, []error)
	ExactSearch(ctx context.Context, q Query) (*Response, error)

	// Persistence.
	SaveTo(w io.Writer) error
	Save(path string) error
}

var (
	_ Service = (*Engine)(nil)
	_ Service = (*DurableService)(nil)
)
