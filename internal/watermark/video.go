package watermark

import (
	"irs/internal/photo"
)

// Video watermarking: one payload embedded independently in every
// frame, extraction by voting across frames. Per-frame redundancy is
// what the video medium buys: even transforms that defeat a single
// frame's read (heavy per-frame compression, dropped frames) leave
// enough agreeing frames to recover the identifier.

// EmbedVideo embeds payload into every frame of a copy of v. Embed
// returns each frame as a copy already, so the frames are not cloned a
// second time around it.
func EmbedVideo(v *photo.Video, payload [PayloadBytes]byte, cfg Config) (*photo.Video, error) {
	out := &photo.Video{FPS: v.FPS, Frames: make([]*photo.Image, len(v.Frames)), Meta: v.Meta.Clone()}
	for i, f := range v.Frames {
		wm, err := Embed(f, payload, cfg)
		if err != nil {
			return nil, err
		}
		out.Frames[i] = wm
	}
	return out, nil
}

// VideoResult reports a video extraction.
type VideoResult struct {
	Payload [PayloadBytes]byte
	// FramesAgreeing counts frames whose individual read matched the
	// winning payload.
	FramesAgreeing int
	// FramesRead counts frames with any valid read.
	FramesRead int
}

// ExtractVideo reads each frame (aligned fast path, then geometric
// search) and returns the majority payload. It fails only when no frame
// yields a valid read.
func ExtractVideo(v *photo.Video, cfg Config) (VideoResult, error) {
	// Ties between equally-voted payloads break toward the payload first
	// read (lowest frame index), never by map iteration order — the
	// winning payload must be a deterministic function of the frames.
	type tally struct {
		n     int
		first int
	}
	votes := make(map[[PayloadBytes]byte]*tally)
	read := 0
	for i, f := range v.Frames {
		res, err := ExtractFallback(f, cfg)
		if err != nil {
			continue
		}
		t := votes[res.Payload]
		if t == nil {
			t = &tally{first: i}
			votes[res.Payload] = t
		}
		t.n++
		read++
	}
	if read == 0 {
		return VideoResult{}, ErrNotFound
	}
	var best [PayloadBytes]byte
	bestN, bestFirst := -1, -1
	for p, t := range votes {
		if t.n > bestN || (t.n == bestN && t.first < bestFirst) {
			best, bestN, bestFirst = p, t.n, t.first
		}
	}
	return VideoResult{Payload: best, FramesAgreeing: bestN, FramesRead: read}, nil
}
