package ids

import (
	"bufio"
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"testing"
)

const idVectorFile = "testdata/vectors/ids.txt"

// idVector is one row of the vector file: its name and fields.
type idVector struct {
	name   string
	fields map[string]string
}

func readIDVectors(t *testing.T) []idVector {
	t.Helper()
	f, err := os.Open(idVectorFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []idVector
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		row := idVector{name: parts[0], fields: map[string]string{}}
		for _, kv := range parts[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				t.Fatalf("%s: field %q is not key=value", row.name, kv)
			}
			row.fields[k] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// id decodes the row's 16 id bytes.
func (v idVector) id(t *testing.T) [16]byte {
	t.Helper()
	b, err := hex.DecodeString(v.fields["id"])
	if err != nil || len(b) != 16 {
		t.Fatalf("%s: id %q is not 16 hex bytes", v.name, v.fields["id"])
	}
	return [16]byte(b)
}

// specCRC8 is PROTOCOL.md's check digit, bit by bit: CRC-8 with
// polynomial x⁸+x²+x+1 (0x07), initial value 0, most significant bit
// first, no final xor.
func specCRC8(b []byte) byte {
	var reg byte
	for _, x := range b {
		for bit := 7; bit >= 0; bit-- {
			in := (x >> bit) & 1
			top := reg >> 7
			reg <<= 1
			if top^in == 1 {
				reg ^= 0x07
			}
		}
	}
	return reg
}

// specText is PROTOCOL.md's text form, field by field: the 136 bits of
// id ∥ crc read five at a time from the most significant, each an index
// into the Crockford alphabet, the last group padded with four zero
// bits to 140.
func specText(id [16]byte, crc byte) string {
	const alphabet = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"
	bitsOf := make([]byte, 0, 140)
	for _, x := range append(id[:], crc) {
		for bit := 7; bit >= 0; bit-- {
			bitsOf = append(bitsOf, (x>>bit)&1)
		}
	}
	bitsOf = append(bitsOf, 0, 0, 0, 0)
	var sb strings.Builder
	for i := 0; i < len(bitsOf); i += 5 {
		v := 0
		for _, b := range bitsOf[i : i+5] {
			v = v<<1 | int(b)
		}
		sb.WriteByte(alphabet[v])
	}
	return sb.String()
}

// TestIDVectors holds String, Parse, Bytes and FromBytes to
// testdata/vectors/ids.txt and to a field-by-field build of the text
// form from PROTOCOL.md §Identifiers: canonical encodings at ledgers 0,
// 7 and 0xffffffff, lower case and the O/I/L aliases accepted, and
// non-zero padding bits, a flipped checksum, 27 and 29 characters and a
// U refused.
func TestIDVectors(t *testing.T) {
	rows := readIDVectors(t)
	counts := map[string]int{}
	for _, v := range rows {
		kind, _, _ := strings.Cut(v.name, "/")
		counts[kind]++
		t.Run(v.name, func(t *testing.T) {
			text := v.fields["text"]
			switch kind {
			case "id":
				raw := v.id(t)
				crc := specCRC8(raw[:])
				if got := hex.EncodeToString([]byte{crc}); got != v.fields["crc"] {
					t.Errorf("crc: spec gives %s, file has %s", got, v.fields["crc"])
				}
				if spec := specText(raw, crc); spec != text {
					t.Errorf("text: spec gives %s, file has %s", spec, text)
				}
				p := FromBytes(raw)
				if p.Bytes() != raw {
					t.Errorf("Bytes() = %x, want %x", p.Bytes(), raw)
				}
				if got := p.String(); got != text {
					t.Errorf("String() = %s, want %s", got, text)
				}
				if got, err := Parse(text); err != nil || got != p {
					t.Errorf("Parse(%s) = %v, %v; want %v", text, got, err, p)
				}
			case "accept":
				want := FromBytes(v.id(t))
				if got, err := Parse(text); err != nil || got != want {
					t.Errorf("Parse(%s) = %v, %v; want %v", text, got, err, want)
				}
			case "refuse":
				wantErr := map[string]error{
					"length":   ErrBadLength,
					"char":     ErrBadChar,
					"checksum": ErrBadChecksum,
				}[v.fields["err"]]
				if wantErr == nil {
					t.Fatalf("unknown err %q", v.fields["err"])
				}
				if got, err := Parse(text); !errors.Is(err, wantErr) {
					t.Errorf("Parse(%s) = %v, %v; want %v", text, got, err, wantErr)
				}
			default:
				t.Fatalf("unknown row kind %q", kind)
			}
		})
	}
	if counts["id"] != 3 || counts["accept"] != 2 || counts["refuse"] != 5 {
		t.Errorf("%s has %v rows by kind, want 3 id, 2 accept, 5 refuse", idVectorFile, counts)
	}
}
