// Command irsctl is the owner-side IRS tool: the "owner-controlled
// software" of paper §3.2. It shoots (synthesizes) photos, claims and
// labels them against a ledger, revokes and unrevokes, checks status,
// extracts labels from image files, and audits ledger honesty.
//
// Usage:
//
//	irsctl -ledger http://localhost:8330 -keystore ~/.irs/keys.json <command> [args]
//
// Commands:
//
//	shoot <seed> <out.irsp>        synthesize, claim, label, write IRSP file
//	claim <in.irsp> <out.irsp>     claim an existing IRSP photo and label it
//	revoke <id>                    revoke an owned photo
//	unrevoke <id>                  re-activate an owned photo
//	status <id>                    query revocation status
//	inspect <in.irsp|in.pgm>       extract the label (metadata + watermark)
//	list                           list owned photo identifiers
//	appeal <orig> <copy> <id> [url] lodge a §3.2 complaint at a ledger or site desk
//	audit                          probe the ledger for honest answers (§5)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"irs/internal/appeals"
	"irs/internal/camera"
	"irs/internal/ids"
	"irs/internal/photo"
	"irs/internal/watermark"
	"irs/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "irsctl: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		ledgerURL = flag.String("ledger", "http://localhost:8330", "ledger base URL")
		storePath = flag.String("keystore", "irs-keys.json", "key store file (owner's private keys)")
		size      = flag.String("size", "256x160", "synthesized photo size WxH")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		return fmt.Errorf("no command")
	}

	// LoadKeyStore binds the store to the path, so later mutations
	// persist automatically.
	store, err := camera.LoadKeyStore(*storePath)
	if err != nil {
		return err
	}
	cam := camera.New(wire.NewClient(*ledgerURL, ""), *ledgerURL, store)

	switch args[0] {
	case "shoot":
		if len(args) != 3 {
			return fmt.Errorf("usage: shoot <seed> <out.irsp>")
		}
		var seed int64
		if _, err := fmt.Sscanf(args[1], "%d", &seed); err != nil {
			return fmt.Errorf("bad seed %q", args[1])
		}
		var w, h int
		if _, err := fmt.Sscanf(*size, "%dx%d", &w, &h); err != nil {
			return fmt.Errorf("bad -size %q", *size)
		}
		im := cam.Shoot(seed, w, h)
		labeled, owned, err := cam.ClaimAndLabel(im)
		if err != nil {
			return err
		}
		if err := writeIRSP(args[2], labeled); err != nil {
			return err
		}
		// §3.2: "The owner safely stores the original photo, the private
		// key, and the identifier." The original's pixels are the
		// appeal-time evidence the claim timestamp covers, so vault it
		// next to the shareable labeled copy.
		origPath := args[2] + ".orig"
		if err := writeIRSP(origPath, im); err != nil {
			return err
		}
		fmt.Printf("claimed %s\n  ledger    %s\n  timestamp %s\n  wrote     %s (shareable)\n  vaulted   %s (appeal evidence)\n",
			owned.ID, *ledgerURL, owned.Receipt.Timestamp.Time, args[2], origPath)
		return nil

	case "claim":
		if len(args) != 3 {
			return fmt.Errorf("usage: claim <in.irsp> <out.irsp>")
		}
		im, err := readImage(args[1])
		if err != nil {
			return err
		}
		labeled, owned, err := cam.ClaimAndLabel(im)
		if err != nil {
			return err
		}
		if err := writeIRSP(args[2], labeled); err != nil {
			return err
		}
		fmt.Printf("claimed %s → %s\n", owned.ID, args[2])
		return nil

	case "revoke", "unrevoke":
		if len(args) != 2 {
			return fmt.Errorf("usage: %s <id>", args[0])
		}
		id, err := ids.Parse(args[1])
		if err != nil {
			return err
		}
		if args[0] == "revoke" {
			err = cam.Revoke(id)
		} else {
			err = cam.Unrevoke(id)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%sd %s\n", args[0], id)
		return nil

	case "status":
		if len(args) != 2 {
			return fmt.Errorf("usage: status <id>")
		}
		id, err := ids.Parse(args[1])
		if err != nil {
			return err
		}
		proof, err := wire.NewClient(*ledgerURL, "").Status(id)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s (as of %s)\n", id, proof.State, proof.IssuedAt)
		return nil

	case "inspect":
		if len(args) != 2 {
			return fmt.Errorf("usage: inspect <file>")
		}
		im, err := readImage(args[1])
		if err != nil {
			return err
		}
		if s := im.Meta.Get(photo.KeyIRSID); s != "" {
			fmt.Printf("metadata label: %s (ledger %s)\n", s, im.Meta.Get(photo.KeyIRSLedgerURL))
		} else {
			fmt.Println("metadata label: none")
		}
		cfg := watermark.DefaultConfig()
		res, err := watermark.ExtractFallback(im, cfg)
		if err != nil {
			fmt.Println("watermark:      none found")
		} else {
			fmt.Printf("watermark:      %s (margin %.2f)\n", ids.FromBytes(res.Payload), res.Margin)
		}
		return nil

	case "list":
		for _, id := range store.List() {
			fmt.Println(id)
		}
		return nil

	case "appeal":
		// appeal <original-file> <copy-file> <contested-id> [<ledger-url>]
		// The original must be a photo this keystore owns (its label's
		// identifier locates the claim receipt with the timestamp).
		if len(args) < 4 || len(args) > 5 {
			return fmt.Errorf("usage: appeal <original.irsp> <copy.irsp> <contested-id> [<appeal-ledger-url>]")
		}
		orig, err := readImage(args[1])
		if err != nil {
			return fmt.Errorf("reading original: %w", err)
		}
		copyImg, err := readImage(args[2])
		if err != nil {
			return fmt.Errorf("reading copy: %w", err)
		}
		contested, err := ids.Parse(args[3])
		if err != nil {
			return fmt.Errorf("contested id: %w", err)
		}
		appealURL := *ledgerURL
		if len(args) == 5 {
			appealURL = args[4]
		}
		return lodgeAppeal(store, orig, copyImg, contested, appealURL)

	case "audit":
		rep, err := cam.Audit(1)
		if err != nil {
			return err
		}
		if rep.Healthy {
			fmt.Println("ledger audit: healthy")
			return nil
		}
		for _, f := range rep.Failures {
			fmt.Printf("ledger audit FAILURE: %s\n", f)
		}
		return fmt.Errorf("ledger failed audit")

	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func writeIRSP(path string, im *photo.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := photo.EncodeIRSP(f, im); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readImage(path string) (*photo.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	im, err := photo.DecodeIRSP(f)
	if err == nil {
		return im, nil
	}
	if _, serr := f.Seek(0, 0); serr != nil {
		return nil, serr
	}
	return photo.DecodePNM(f)
}

// lodgeAppeal locates the claim evidence for the original (by the
// original's metadata or watermark label, then the keystore) and posts
// the complaint to the desk at appealURL: the contested claim's ledger,
// or the irs-site hosting the copy.
func lodgeAppeal(store *camera.KeyStore, orig, copyImg *photo.Image, contested ids.PhotoID, appealURL string) error {
	// Find which of our claims covers the original.
	var owned *camera.Owned
	if s := orig.Meta.Get(photo.KeyIRSID); s != "" {
		if id, err := ids.Parse(s); err == nil {
			owned, _ = store.Get(id)
		}
	}
	if owned == nil {
		// Fall back to matching the content hash against the keystore —
		// the original may be the unlabeled capture.
		hash := orig.ContentHash()
		for _, id := range store.List() {
			if o, ok := store.Get(id); ok && o.ContentHash == hash {
				owned = o
				break
			}
		}
	}
	if owned == nil {
		return fmt.Errorf("no claim in the keystore covers this original")
	}
	if owned.Receipt.Timestamp == nil {
		return fmt.Errorf("keystore record for %s has no timestamp token", owned.ID)
	}

	encode := func(im *photo.Image) ([]byte, error) {
		var buf bytes.Buffer
		if err := photo.EncodeIRSP(&buf, im); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	origBytes, err := encode(orig)
	if err != nil {
		return err
	}
	copyBytes, err := encode(copyImg)
	if err != nil {
		return err
	}
	req := appeals.ComplaintRequest{
		Original:       origBytes,
		OriginalToken:  owned.Receipt.Timestamp.Marshal(),
		OriginalLedger: uint32(owned.ID.Ledger),
		Copy:           copyBytes,
		ContestedID:    contested.String(),
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	resp, err := http.Post(appealURL+"/v1/appeal", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("appeal rejected: status %d: %s", resp.StatusCode, raw)
	}
	var verdict appeals.VerdictResponse
	if err := json.NewDecoder(resp.Body).Decode(&verdict); err != nil {
		return err
	}
	fmt.Printf("verdict: %s (similarity %.3f)\n%s\n", verdict.Outcome, verdict.Similarity, verdict.Detail)
	if !verdict.Upheld {
		return fmt.Errorf("appeal not upheld")
	}
	return nil
}
