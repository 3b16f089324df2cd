package wire

import (
	"fmt"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// Service is the ledger surface consumed by owners (camera software),
// aggregators, proxies, and the appeals process. Two implementations
// exist: Client (HTTP, the deployed form) and Loopback (direct in-process
// calls, used by experiments so that million-operation sweeps don't pay
// loopback-TCP costs they aren't measuring).
type Service interface {
	Claim(req *ClaimRequest) (ledger.Receipt, error)
	Apply(id ids.PhotoID, op ledger.Op, seq uint64, sig []byte) error
	Seq(id ids.PhotoID) (uint64, error)
	Status(id ids.PhotoID) (*ledger.StatusProof, error)
	// StatusBatch validates up to MaxStatusBatch identifiers in one
	// round trip, returning proofs in request order. The proofs of one
	// StatusBatch share a backing array, which is the caller's — no
	// implementation keeps a reference to it. Copy to retain: a holder
	// that keeps one pointer past the call (a cache) pins all of them.
	StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error)
	Keys() (*KeysResponse, error)
	// FilterSync is the filter sync: the caller presents the
	// epoch and hash of the filter it holds and receives whatever
	// payload (base-validated delta or full snapshot, whichever is
	// smaller — feed it to bloom.ApplyUpdate) brings it to the latest
	// epoch. An empty payload means the caller is already current. A
	// base mismatch is resolved by the server (snapshot), not surfaced
	// as an error.
	FilterSync(from uint64, baseHash []byte) (payload []byte, latest uint64, err error)
	PermanentRevoke(id ids.PhotoID) error
}

var (
	_ Service = (*Client)(nil)
	_ Service = (*Loopback)(nil)
)

// Loopback adapts a *ledger.Ledger to the Service interface without a
// network.
type Loopback struct {
	L *ledger.Ledger
}

// Claim implements Service.
func (lb *Loopback) Claim(req *ClaimRequest) (ledger.Receipt, error) {
	if len(req.ContentHash) != 32 {
		return ledger.Receipt{}, fmt.Errorf("wire: content hash must be 32 bytes")
	}
	var hash [32]byte
	copy(hash[:], req.ContentHash)
	if req.Custodial {
		return lb.L.CustodialClaim(hash, req.PubKey, req.HashSig)
	}
	return lb.L.Claim(hash, req.PubKey, req.HashSig, req.RevokedAtBirth)
}

// Apply implements Service.
func (lb *Loopback) Apply(id ids.PhotoID, op ledger.Op, seq uint64, sig []byte) error {
	return lb.L.Apply(id, op, sig)
}

// Seq implements Service.
func (lb *Loopback) Seq(id ids.PhotoID) (uint64, error) {
	rec, err := lb.L.Record(id)
	if err != nil {
		return 0, err
	}
	return rec.OpSeq, nil
}

// Status implements Service.
func (lb *Loopback) Status(id ids.PhotoID) (*ledger.StatusProof, error) {
	return lb.L.Status(id)
}

// StatusBatch implements Service. The bound is enforced even in
// process so loopback and HTTP deployments share limits.
func (lb *Loopback) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	if err := CheckBatchSize(len(batch)); err != nil {
		return nil, err
	}
	return lb.L.StatusBatch(batch)
}

// Keys implements Service.
func (lb *Loopback) Keys() (*KeysResponse, error) {
	return &KeysResponse{
		LedgerID:     uint32(lb.L.ID()),
		SigningKey:   lb.L.SigningKey(),
		TimestampKey: lb.L.TimestampKey(),
	}, nil
}

// FilterSync implements Service.
func (lb *Loopback) FilterSync(from uint64, baseHash []byte) ([]byte, uint64, error) {
	return lb.L.FilterSync(from, baseHash)
}

// PermanentRevoke implements Service. The loopback caller is in-process
// and therefore trusted the way the admin token would establish over
// HTTP.
func (lb *Loopback) PermanentRevoke(id ids.PhotoID) error {
	return lb.L.PermanentRevoke(id)
}
