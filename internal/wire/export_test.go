package wire

import (
	"encoding/binary"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/tsa"
)

// RetiredFrames builds one well-formed frame of each serving kind the
// compact frames replaced, in its old layout, around id, proof and tok:
// the id batches 'B' and 'W' (n × id[16]), the status batch answer 'b'
// (n × u16 len | proof), the validate answer 'w' (state, source,
// displayable, u16 len | proof) and the claim answer 'c' (id, u16 len |
// token, u16 len | proof). This revision refuses every one of them.
func RetiredFrames(id ids.PhotoID, proof *ledger.StatusProof, tok *tsa.Token) map[string][]byte {
	field := func(dst, f []byte) []byte {
		return append(binary.LittleEndian.AppendUint16(dst, uint16(len(f))), f...)
	}
	frame := func(kind byte, body ...byte) []byte {
		return FinishFrame(append(append(BeginFrame(nil), kind), body...), 0)
	}
	idb := id.Bytes()
	raw := proof.Marshal()
	return map[string][]byte{
		"B": frame('B', append([]byte{1}, idb[:]...)...),
		"W": frame('W', append([]byte{1}, idb[:]...)...),
		"b": frame('b', field([]byte{1}, raw)...),
		"w": frame('w', field([]byte{1, byte(proof.State), 2, 0}, raw)...),
		"c": frame('c', field(field(idb[:], tok.Marshal()), raw)...),
	}
}
