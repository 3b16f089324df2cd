package ledger

import (
	"bufio"
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"irs/internal/ids"
)

// signedVectorFile pins every canonical signed message — a claim, the
// owner ops and a status proof in each state — to fixed bytes and
// signatures, so a third party can check an implementation written from
// PROTOCOL.md alone. Its header names the inputs; nothing rewrites it.
const signedVectorFile = "testdata/vectors/signed.txt"

// signedVectorRows names the rows the file must hold: the claim, both
// ops at a one-byte and a two-byte seq, and a proof in every state.
var signedVectorRows = []string{
	"claim",
	"op/revoke/seq-1", "op/unrevoke/seq-1", "op/revoke/seq-300", "op/unrevoke/seq-300",
	"proof/unknown", "proof/active", "proof/revoked", "proof/permanently-revoked",
}

// signedVector is one row: its name and field=value pairs.
type signedVector struct {
	name   string
	fields map[string]string
}

func (v signedVector) hex(t *testing.T, key string) []byte {
	t.Helper()
	b, err := hex.DecodeString(v.fields[key])
	if err != nil || len(b) == 0 {
		t.Fatalf("%s: field %s: %q", v.name, key, v.fields[key])
	}
	return b
}

func (v signedVector) uint(t *testing.T, key string) uint64 {
	t.Helper()
	n, err := strconv.ParseUint(v.fields[key], 10, 64)
	if err != nil {
		t.Fatalf("%s: field %s: %v", v.name, key, err)
	}
	return n
}

func (v signedVector) id(t *testing.T) ids.PhotoID {
	t.Helper()
	b := v.hex(t, "id")
	if len(b) != 16 {
		t.Fatalf("%s: id is %d bytes", v.name, len(b))
	}
	return ids.FromBytes([16]byte(b))
}

func readSignedVectors(t *testing.T) map[string]signedVector {
	f, err := os.Open(signedVectorFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]signedVector)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		words := strings.Fields(line)
		v := signedVector{name: words[0], fields: make(map[string]string)}
		for _, w := range words[1:] {
			k, val, ok := strings.Cut(w, "=")
			if !ok {
				t.Fatalf("%s: bad field %q in row %s", signedVectorFile, w, v.name)
			}
			v.fields[k] = val
		}
		out[v.name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSignedMessageVectors pins the canonical signed messages to
// signedVectorFile: each row's message equals both the encoder's
// (ClaimMsg, OpMsg, the head of Marshal) and a field-by-field build
// from PROTOCOL.md's table; its signature is the one its seed's key
// makes and verifies; a proof row's Marshal form is message ∥
// signature and decodes back to its inputs. A flipped byte anywhere in
// a message or proof fails verification or decoding, and a truncated
// or extended proof is refused.
func TestSignedMessageVectors(t *testing.T) {
	rows := readSignedVectors(t)
	if len(rows) != len(signedVectorRows) {
		t.Errorf("%s has %d rows, want %d", signedVectorFile, len(rows), len(signedVectorRows))
	}
	for _, name := range signedVectorRows {
		t.Run(name, func(t *testing.T) {
			v, ok := rows[name]
			if !ok {
				t.Fatalf("no row in %s", signedVectorFile)
			}
			seed := v.hex(t, "seed")
			if len(seed) != 1 {
				t.Fatalf("seed is %d bytes, want one to repeat", len(seed))
			}
			key := ed25519.NewKeyFromSeed(bytes.Repeat(seed, ed25519.SeedSize))
			pub := key.Public().(ed25519.PublicKey)
			msg, sig := v.hex(t, "msg"), v.hex(t, "sig")

			var enc []byte
			var spec bytes.Buffer
			var proof *StatusProof
			switch kind, _, _ := strings.Cut(name, "/"); kind {
			case "claim":
				hash := v.hex(t, "hash")
				enc = ClaimMsg([32]byte(hash))
				spec.WriteString("irs-claim-v1:")
				spec.Write(hash)
			case "op":
				id, op, seq := v.id(t), Op(v.uint(t, "op")), v.uint(t, "seq")
				enc = OpMsg(id, op, seq)
				spec.WriteString("irs-op-v1:")
				spec.Write(v.hex(t, "id"))
				spec.WriteByte(byte(op))
				spec.Write(binary.BigEndian.AppendUint64(nil, seq))
			case "proof":
				issued := v.uint(t, "issued")
				proof = &StatusProof{ID: v.id(t), State: State(v.uint(t, "state")), IssuedAt: time.Unix(0, int64(issued)).UTC()}
				copy(proof.Sig[:], sig)
				marshaled := proof.Marshal()
				if want := v.hex(t, "proof"); !bytes.Equal(marshaled, want) {
					t.Errorf("Marshal wrote\n%x\nwant\n%x", marshaled, want)
				}
				if len(marshaled) != MarshaledProofSize || MarshaledProofSize != 103 {
					t.Fatalf("marshaled proof is %d bytes, MarshaledProofSize %d; want 103", len(marshaled), MarshaledProofSize)
				}
				enc = marshaled[:len(marshaled)-ed25519.SignatureSize]
				if !bytes.Equal(marshaled[len(enc):], sig) {
					t.Errorf("Marshal's tail is not the signature")
				}
				spec.WriteString("irs-status-v1:")
				spec.Write(v.hex(t, "id"))
				spec.WriteByte(byte(v.uint(t, "state")))
				spec.Write(binary.BigEndian.AppendUint64(nil, issued))
			default:
				t.Fatalf("unknown row kind %q", kind)
			}
			if !bytes.Equal(enc, msg) {
				t.Errorf("encoder wrote\n%x\nwant\n%x", enc, msg)
			}
			if !bytes.Equal(spec.Bytes(), msg) {
				t.Errorf("PROTOCOL.md layout gives\n%x\nwant\n%x", spec.Bytes(), msg)
			}
			if got := ed25519.Sign(key, msg); !bytes.Equal(got, sig) {
				t.Errorf("seed %x signs\n%x\nwant\n%x", seed, got, sig)
			}
			if !ed25519.Verify(pub, msg, sig) {
				t.Fatal("pinned signature does not verify")
			}
			for i := range msg {
				flipped := bytes.Clone(msg)
				flipped[i] ^= 1
				if ed25519.Verify(pub, flipped, sig) {
					t.Errorf("message with byte %d flipped verifies", i)
				}
			}
			if proof == nil {
				return
			}

			pinned := v.hex(t, "proof")
			got, err := UnmarshalProof(pinned)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *proof {
				t.Errorf("pinned proof decodes to %+v, want %+v", *got, *proof)
			}
			if err := VerifyProof(pub, got, time.Time{}, 0); err != nil {
				t.Errorf("pinned proof: %v", err)
			}
			for i := range pinned {
				flipped := bytes.Clone(pinned)
				flipped[i] ^= 1
				if p, err := UnmarshalProof(flipped); err == nil && VerifyProof(pub, p, time.Time{}, 0) == nil {
					t.Errorf("proof with byte %d flipped accepted", i)
				}
			}
			for what, b := range map[string][]byte{
				"truncated": pinned[:len(pinned)-1],
				"trailing":  append(bytes.Clone(pinned), 0),
			} {
				if _, err := UnmarshalProof(b); err == nil {
					t.Errorf("%s proof decoded", what)
				}
			}
		})
	}
}
