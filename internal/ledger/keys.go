package ledger

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// A persistent ledger's identity is its two private keys: the one that
// signs status proofs and its timestamp authority's. They live in the
// key file beside MANIFEST, written once when the directory is created,
// so that a reopened ledger publishes the same keys and every proof and
// timestamp token it issued before still verifies. Layout:
//
//	"IRSK" | u32 version (1) | proof-signing seed[32] | TSA seed[32] |
//	u32 CRC32-C of the preceding 72 bytes
//
// The file is mode 0600 and is replaced, like MANIFEST, by tmp write,
// fsync, rename and directory fsync.

const (
	keyFile        = "KEYS"
	keyFileMagic   = "IRSK"
	keyFileVersion = 1
	keyFileSize    = 4 + 4 + 2*ed25519.SeedSize + 4
)

// ledgerKeys are a ledger's proof-signing and timestamp-authority keys.
type ledgerKeys struct {
	sign, tsa ed25519.PrivateKey
}

// newKeys draws a fresh pair.
func newKeys() (ledgerKeys, error) {
	var k ledgerKeys
	var err error
	if _, k.sign, err = ed25519.GenerateKey(rand.Reader); err == nil {
		_, k.tsa, err = ed25519.GenerateKey(rand.Reader)
	}
	if err != nil {
		return ledgerKeys{}, fmt.Errorf("ledger: keygen: %w", err)
	}
	return k, nil
}

func (k ledgerKeys) marshal() []byte {
	b := make([]byte, 0, keyFileSize)
	b = append(b, keyFileMagic...)
	b = binary.LittleEndian.AppendUint32(b, keyFileVersion)
	b = append(b, k.sign.Seed()...)
	b = append(b, k.tsa.Seed()...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

func parseKeys(b []byte) (ledgerKeys, error) {
	if len(b) != keyFileSize || string(b[:4]) != keyFileMagic {
		return ledgerKeys{}, errors.New("not a key file")
	}
	if crc32.Checksum(b[:keyFileSize-4], castagnoli) != binary.LittleEndian.Uint32(b[keyFileSize-4:]) {
		return ledgerKeys{}, errors.New("crc mismatch")
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != keyFileVersion {
		return ledgerKeys{}, fmt.Errorf("unsupported version %d", v)
	}
	seeds := b[8 : 8+2*ed25519.SeedSize]
	return ledgerKeys{
		sign: ed25519.NewKeyFromSeed(seeds[:ed25519.SeedSize]),
		tsa:  ed25519.NewKeyFromSeed(seeds[ed25519.SeedSize:]),
	}, nil
}

// openKeys reads dir's key file. A directory without one gets fresh keys,
// written before anything else, unless it already holds records: those
// were signed by keys this ledger cannot have, so it is refused.
func openKeys(dir string, man *manifest) (ledgerKeys, error) {
	path := filepath.Join(dir, keyFile)
	data, err := os.ReadFile(path)
	if err == nil {
		k, perr := parseKeys(data)
		if perr != nil {
			return ledgerKeys{}, fmt.Errorf("ledger: key file %s: %w", path, perr)
		}
		return k, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return ledgerKeys{}, fmt.Errorf("ledger: reading key file: %w", err)
	}
	held, err := holdsRecords(dir, man)
	if err != nil {
		return ledgerKeys{}, err
	}
	if held {
		return ledgerKeys{}, fmt.Errorf("ledger: %s holds records but no %s file: it was written in format version 1, or its key file was lost; refusing to open it under new keys", dir, keyFile)
	}
	k, err := newKeys()
	if err != nil {
		return ledgerKeys{}, err
	}
	if err := writeFileAtomic(dir, keyFile, k.marshal(), 0o600); err != nil {
		return ledgerKeys{}, fmt.Errorf("ledger: writing key file: %w", err)
	}
	return k, nil
}

// holdsRecords reports whether dir holds any record: a segment, listed
// or not, or a non-empty WAL file.
func holdsRecords(dir string, man *manifest) (bool, error) {
	if len(man.Segments) > 0 {
		return true, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		name := e.Name()
		if isSegFile(name) {
			return true, nil
		}
		if _, ok := parseWALSeq(name); ok {
			info, err := e.Info()
			if err != nil {
				return false, err
			}
			if info.Size() > 0 {
				return true, nil
			}
		}
	}
	return false, nil
}
