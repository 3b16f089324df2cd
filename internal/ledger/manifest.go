package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The manifest is the segment engine's root pointer: a small JSON file
// naming the live segments (newest first), the first WAL file recovery
// must replay, the exact claim count the segments represent, and the
// largest timestamp serial among their claims. Updates are atomic and
// durable: tmp write → fsync(file) → rename → fsync(directory). A crash
// leaves either the old or the new manifest; orphan segment and WAL
// files the surviving manifest does not reference are deleted during
// recovery.

const manifestFile = "MANIFEST"

// formatVersion is the ledger directory format: the MANIFEST version
// and the segment header's. Version 2 stores a claim in a 236-byte frame
// that holds each fact once (binrec.go) and keeps the ledger's keys in
// KEYS; version 1's 272-byte frames are refused, not read.
const formatVersion = 2

// manifestSeg describes one live segment.
type manifestSeg struct {
	// File is the segment file name within the ledger directory.
	File string `json:"file"`
	// Count is the number of records sealed into the segment.
	Count uint64 `json:"count"`
	// Revoked is the number of revoked-state records sealed in.
	Revoked uint64 `json:"revoked"`
	// Bytes is the segment file size, for reports.
	Bytes int64 `json:"bytes"`
}

// manifest is the persisted engine state.
type manifest struct {
	Version int `json:"version"`
	// WALSeq is the lowest WAL file sequence recovery replays; lower
	// sequences are covered by the segments and deleted.
	WALSeq uint64 `json:"wal_seq"`
	// NextSeg is the next unused segment file sequence number.
	NextSeg uint64 `json:"next_seg"`
	// Claims is the number of distinct claims represented by the
	// segments (WAL replay adds its claim records on top).
	Claims uint64 `json:"claims"`
	// MaxSerial is at least the largest timestamp-token serial among
	// the segments' claims: with the largest the WAL replays, where the
	// reopened ledger's timestamp authority resumes, so that opening
	// decodes no segment frame.
	MaxSerial uint64 `json:"max_serial"`
	// Segments lists live segments newest-first: a reader stops at the
	// first segment containing the identifier.
	Segments []manifestSeg `json:"segments"`
}

// syncDir fsyncs a directory so a rename inside it is durable; without
// it a crash can resurrect the state from before the rename.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeManifest atomically replaces dir/MANIFEST.
func writeManifest(dir string, m *manifest) error {
	m.Version = formatVersion
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(dir, manifestFile, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("ledger: writing manifest: %w", err)
	}
	return nil
}

// writeFileAtomic replaces dir/name with data durably: it writes and
// fsyncs name.tmp, renames it over name, then fsyncs the directory.
func writeFileAtomic(dir, name string, data []byte, perm os.FileMode) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// readManifest loads dir/MANIFEST; a missing file returns an empty
// manifest (fresh directory), a malformed one is a loud error — the
// write protocol never leaves a torn manifest behind, so damage means
// operator intervention, not silent state loss.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &manifest{Version: formatVersion, WALSeq: 1, NextSeg: 1}, nil
		}
		return nil, fmt.Errorf("ledger: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ledger: parsing manifest: %w", err)
	}
	switch m.Version {
	case formatVersion:
	case 1:
		return nil, fmt.Errorf("ledger: %s was written in format version 1 (272-byte claim frames, no key file), which this build does not read; refusing to open it", dir)
	default:
		return nil, fmt.Errorf("ledger: unsupported manifest version %d", m.Version)
	}
	if m.WALSeq == 0 {
		m.WALSeq = 1
	}
	if m.NextSeg == 0 {
		m.NextSeg = 1
	}
	return &m, nil
}
