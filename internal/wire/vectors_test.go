package wire

import (
	"bufio"
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/tsa"
)

// vectorFile pins every IRSW1 serving frame to fixed bytes, so a third
// party can check an implementation written from PROTOCOL.md alone. Its
// header names the inputs; a deliberate format revision re-pins a row
// by hand from the encoder's output that a mismatch prints.
const vectorFile = "testdata/vectors/irsw1.txt"

// vectorInputs are the fixed inputs every row is built from.
type vectorInputs struct {
	key, tsaKey        ed25519.PrivateKey
	at                 time.Time
	a1, a2, a3, b1, b2 ids.PhotoID
	token              *tsa.Token
}

func newVectorInputs() *vectorInputs {
	seed := func(b byte) ed25519.PrivateKey { return ed25519.NewKeyFromSeed(bytes.Repeat([]byte{b}, 32)) }
	id := func(l ids.LedgerID, base byte) ids.PhotoID {
		p := ids.PhotoID{Ledger: l}
		for i := range p.Rec {
			p.Rec[i] = base + byte(i)
		}
		return p
	}
	in := &vectorInputs{key: seed(1), tsaKey: seed(2), at: time.Unix(1700000000, 0).UTC(),
		a1: id(7, 0x10), a2: id(7, 0x20), a3: id(7, 0x30), b1: id(9, 0x40), b2: id(9, 0x50)}
	in.token = tsa.NewFromKey(in.tsaKey, func() time.Time { return in.at }, 0).Stamp(sha256.Sum256([]byte("irs vector photo")))
	return in
}

// proof signs id's state at in.at over PROTOCOL.md's canonical message.
func (in *vectorInputs) proof(id ids.PhotoID, st ledger.State) *ledger.StatusProof {
	idb := id.Bytes()
	msg := append(append([]byte("irs-status-v1:"), idb[:]...), byte(st))
	msg = binary.BigEndian.AppendUint64(msg, uint64(in.at.UnixNano()))
	p := &ledger.StatusProof{ID: id, State: st, IssuedAt: in.at}
	copy(p.Sig[:], ed25519.Sign(in.key, msg))
	return p
}

// specFrame writes a frame field by field from PROTOCOL.md's tables,
// with no help from the encoders.
type specFrame struct{ bytes.Buffer }

func (s *specFrame) uvarint(v uint64) {
	for ; v >= 0x80; v >>= 7 {
		s.WriteByte(byte(v) | 0x80)
	}
	s.WriteByte(byte(v))
}

func (s *specFrame) u64(v uint64) { s.Write(binary.BigEndian.AppendUint64(nil, v)) }

// run writes one id-batch run: the ledger, the count and each record id.
func (s *specFrame) run(l ids.LedgerID, batch ...ids.PhotoID) {
	s.Write(binary.BigEndian.AppendUint32(nil, uint32(l)))
	s.uvarint(uint64(len(batch)))
	for _, id := range batch {
		s.Write(id.Rec[:])
	}
}

// signed writes a proof's issued-at and signature: its tail after the
// state byte.
func (s *specFrame) signed(p *ledger.StatusProof) {
	s.u64(uint64(p.IssuedAt.UnixNano()))
	s.Write(p.Sig[:])
}

// entry writes one validate entry: state, source and the proof bit.
func (s *specFrame) entry(st ledger.State, source byte, p *ledger.StatusProof) {
	bits := byte(st) | source<<3
	if p != nil {
		bits |= 1 << 6
	}
	s.WriteByte(bits)
	if p != nil {
		s.signed(p)
	}
}

// claimAnswer writes a claim answer: id, the u16-LE-length token in the
// tsa layout, then p's tail when p is non-nil.
func (s *specFrame) claimAnswer(id ids.PhotoID, tok *tsa.Token, p *ledger.StatusProof) {
	s.WriteByte('r')
	idb := id.Bytes()
	s.Write(idb[:])
	s.Write(binary.LittleEndian.AppendUint16(nil, 8+8+32+64))
	s.u64(tok.Serial)
	s.u64(uint64(tok.Time.UnixNano()))
	s.Write(tok.Digest[:])
	s.Write(tok.Sig)
	if p != nil {
		s.WriteByte(byte(p.State))
		s.signed(p)
	}
}

func (s *specFrame) frame() []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(s.Len()))
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(s.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	return append(f, s.Bytes()...)
}

// vectorRow is one frame: as the encoder writes it, as specFrame writes
// it, and the check that its payload decodes back to the inputs.
type vectorRow struct {
	name      string
	kind      byte
	enc, spec []byte
	decode    func(t *testing.T, payload []byte)
}

func vectorRows(in *vectorInputs) []vectorRow {
	pub := in.key.Public().(ed25519.PublicKey)
	// sameProof demands that p equals want and verifies under the key.
	sameProof := func(t *testing.T, i int, p, want *ledger.StatusProof) {
		t.Helper()
		if *p != *want || ledger.VerifyProof(pub, p, time.Time{}, 0) != nil {
			t.Errorf("proof %d decoded as %+v, want %+v", i, p, want)
		}
	}
	idRow := func(name string, kind byte, batch []ids.PhotoID, runs func(s *specFrame)) vectorRow {
		var s specFrame
		s.WriteByte(kind)
		s.uvarint(uint64(len(batch)))
		runs(&s)
		return vectorRow{name, kind, appendIDBatch(nil, kind, batch), s.frame(), func(t *testing.T, payload []byte) {
			if got, err := decodeIDBatch(nil, payload); err != nil || !slices.Equal(got, batch) {
				t.Errorf("decoded %v (%v), want %v", got, err, batch)
			}
		}}
	}
	one := []ids.PhotoID{in.a1, in.a2, in.a3}
	page := []ids.PhotoID{in.a1, in.b1, in.b2, in.a2}
	pageRuns := func(s *specFrame) {
		s.run(7, in.a1)
		s.run(9, in.b1, in.b2)
		s.run(7, in.a2)
	}
	rows := []vectorRow{
		idRow("status-batch-request/one-ledger", 'Q', one, func(s *specFrame) { s.run(7, one...) }),
		idRow("status-batch-request/two-ledgers", 'Q', page, pageRuns),
		idRow("validate-batch-request/two-ledgers", 'V', page, pageRuns),
	}

	proofs := []*ledger.StatusProof{in.proof(in.a1, ledger.StateActive), in.proof(in.a2, ledger.StateRevoked),
		in.proof(in.a3, ledger.StatePermanentlyRevoked)}
	var s specFrame
	s.WriteByte('q')
	s.uvarint(uint64(len(proofs)))
	for _, p := range proofs {
		s.WriteByte(byte(p.State))
		s.signed(p)
	}
	rows = append(rows, vectorRow{"status-batch-answer", 'q', EncodeStatusBatchResp(nil, proofs), s.frame(),
		func(t *testing.T, payload []byte) {
			got := ledger.NewProofBatch(len(one))
			n, err := DecodeStatusBatchResp(payload, func(i int, tail []byte) error {
				return got[i].UnmarshalTail(one[i], tail)
			})
			if err != nil || n != len(proofs) {
				t.Fatalf("decoded %d proofs: %v", n, err)
			}
			for i := range proofs {
				sameProof(t, i, got[i], proofs[i])
			}
		}})

	// Sources as proxy numbers them: 0 filter, 1 cache, 2 ledger, 3 stale.
	answers := []struct {
		id     ids.PhotoID
		state  ledger.State
		source byte
		proof  *ledger.StatusProof
	}{
		{in.a1, ledger.StateActive, 0, nil},
		{in.a2, ledger.StateActive, 1, in.proof(in.a2, ledger.StateActive)},
		{in.a3, ledger.StateRevoked, 2, in.proof(in.a3, ledger.StateRevoked)},
		{in.b1, ledger.StateRevoked, 3, in.proof(in.b1, ledger.StateRevoked)},
	}
	s = specFrame{}
	s.WriteByte('v')
	s.uvarint(uint64(len(answers)))
	for _, a := range answers {
		s.entry(a.state, a.source, a.proof)
	}
	enc := EncodeValidateBatchResp(nil, len(answers), func(i int) (byte, byte, *ledger.StatusProof) {
		return byte(answers[i].state), answers[i].source, answers[i].proof
	})
	rows = append(rows, vectorRow{"validate-batch-answer", 'v', enc, s.frame(), func(t *testing.T, payload []byte) {
		n, err := DecodeValidateBatchResp(payload, func(i int, v ValidateWire) error {
			a := answers[i]
			if v.State != byte(a.state) || v.Source != a.source || (v.Signed != nil) != (a.proof != nil) {
				t.Errorf("entry %d decoded as %+v", i, v)
			} else if a.proof != nil {
				var p ledger.StatusProof
				if err := p.Unmarshal(v.AppendProof(nil, a.id)); err != nil {
					return err
				}
				sameProof(t, i, &p, a.proof)
			}
			return nil
		})
		if err != nil || n != len(answers) {
			t.Fatalf("decoded %d entries: %v", n, err)
		}
	}})

	tsaPub := in.tsaKey.Public().(ed25519.PublicKey)
	for _, p := range []*ledger.StatusProof{proofs[0], nil} {
		name := "claim-answer/with-proof"
		if p == nil {
			name = "claim-answer/without-proof"
		}
		s = specFrame{}
		s.claimAnswer(in.a1, in.token, p)
		enc := EncodeClaimResp(nil, ledger.Receipt{ID: in.a1, Timestamp: in.token, Proof: p})
		rows = append(rows, vectorRow{name, 'r', enc, s.frame(), func(t *testing.T, payload []byte) {
			id, token, tail, err := DecodeClaimResp(payload)
			if err != nil || id != in.a1 || !bytes.Equal(token, in.token.Marshal()) || (tail != nil) != (p != nil) {
				t.Fatalf("decoded %v %x %x (%v)", id, token, tail, err)
			}
			if tok, err := tsa.Unmarshal(token); err != nil || tsa.Verify(tsaPub, tok) != nil {
				t.Errorf("token does not verify: %v", err)
			}
			if p != nil {
				var got ledger.StatusProof
				if err := got.UnmarshalTail(id, tail); err != nil {
					t.Fatal(err)
				}
				sameProof(t, 0, &got, p)
			}
		}})
	}
	return rows
}

// readVectors parses vectorFile into name → frame.
func readVectors(t *testing.T) map[string][]byte {
	f, err := os.Open(vectorFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, h, ok := strings.Cut(line, " ")
		frame, err := hex.DecodeString(h)
		if !ok || err != nil {
			t.Fatalf("%s: bad row %q", vectorFile, line)
		}
		out[name] = frame
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWireVectors pins every IRSW1 serving frame to vectorFile: each
// row's encoder output and a field-by-field build from PROTOCOL.md
// equal the pinned bytes, the pinned frame decodes back to its inputs
// (every proof and token verifying), and its truncated, CRC-flipped and
// trailing-byte variants are refused.
func TestWireVectors(t *testing.T) {
	rows := vectorRows(newVectorInputs())
	pinned := readVectors(t)
	if len(pinned) != len(rows) {
		t.Errorf("%s has %d rows, the table %d", vectorFile, len(pinned), len(rows))
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			want, ok := pinned[r.name]
			if !ok {
				t.Fatalf("no row in %s", vectorFile)
			}
			if !bytes.Equal(r.enc, want) {
				t.Errorf("encoder wrote\n%x\nwant\n%x", r.enc, want)
			}
			if !bytes.Equal(r.spec, want) {
				t.Errorf("PROTOCOL.md layout gives\n%x\nwant\n%x", r.spec, want)
			}
			kind, payload, err := DecodeMsg(want, MaxFramePayload)
			if err != nil || kind != r.kind {
				t.Fatalf("kind %c: %v", kind, err)
			}
			r.decode(t, payload)
			flipped := bytes.Clone(want)
			flipped[4] ^= 1
			for name, body := range map[string][]byte{
				"truncated":   want[:len(want)-1],
				"crc-flipped": flipped,
				"trailing":    append(bytes.Clone(want), 0),
			} {
				if _, _, err := DecodeMsg(body, MaxFramePayload); err == nil {
					t.Errorf("%s frame accepted", name)
				}
			}
		})
	}
}
