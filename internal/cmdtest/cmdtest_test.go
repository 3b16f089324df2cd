// Package cmdtest smoke-tests the six binaries as real processes — the
// ledger, proxy, relay, and site servers, the owner CLI, and the bench
// harness. These are the only tests that exercise flag parsing,
// startup/shutdown, and the operational wiring in cmd/.
package cmdtest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/photo"
	"irs/internal/relay"
	"irs/internal/watermark"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "irs-bins")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	for _, tool := range []string{"irs-ledger", "irs-proxy", "irsctl", "irs-bench", "irs-site", "irs-relay"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "irs/cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", tool, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// freePort grabs an ephemeral port. Slightly racy between close and
// reuse, but fine for tests.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// startDaemon launches a binary and waits until probe returns 200.
func startDaemon(t *testing.T, name string, probe string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(probe)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s did not become ready at %s", name, probe)
	return nil
}

func runCtl(t *testing.T, ledgerURL, keystore string, args ...string) (string, error) {
	t.Helper()
	full := append([]string{"-ledger", ledgerURL, "-keystore", keystore}, args...)
	out, err := exec.Command(filepath.Join(binDir, "irsctl"), full...).CombinedOutput()
	return string(out), err
}

func TestFullOperatorFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dataDir := t.TempDir()
	ledgerPort := freePort(t)
	ledgerURL := fmt.Sprintf("http://127.0.0.1:%d", ledgerPort)
	// The deployed cadence: no timer publishes epochs, so the
	// revocation below reaches the proxy's filter only through a pull
	// that finds the ledger's newest epoch stale.
	startDaemon(t, "irs-ledger", ledgerURL+"/v1/keys",
		"-id", "1", "-addr", fmt.Sprintf("127.0.0.1:%d", ledgerPort),
		"-dir", filepath.Join(dataDir, "ledger"))

	proxyPort := freePort(t)
	proxyURL := fmt.Sprintf("http://127.0.0.1:%d", proxyPort)
	startDaemon(t, "irs-proxy", proxyURL+"/v1/stats",
		"-addr", fmt.Sprintf("127.0.0.1:%d", proxyPort),
		"-ledger", "1="+ledgerURL)

	keystore := filepath.Join(dataDir, "keys.json")
	photoFile := filepath.Join(dataDir, "photo.irsp")

	// Shoot: claim + label + write.
	out, err := runCtl(t, ledgerURL, keystore, "shoot", "7", photoFile)
	if err != nil {
		t.Fatalf("shoot: %v\n%s", err, out)
	}
	if !strings.Contains(out, "claimed ") {
		t.Fatalf("shoot output: %s", out)
	}
	// Parse the id out of "claimed <id>".
	var id string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "claimed ") {
			id = strings.TrimSpace(strings.TrimPrefix(line, "claimed "))
		}
	}
	if id == "" {
		t.Fatalf("no id in shoot output: %s", out)
	}

	// Inspect: both label halves present.
	out, err = runCtl(t, ledgerURL, keystore, "inspect", photoFile)
	if err != nil {
		t.Fatalf("inspect: %v\n%s", err, out)
	}
	if !strings.Contains(out, "metadata label: "+id) || !strings.Contains(out, "watermark:      "+id) {
		t.Fatalf("inspect output missing label halves:\n%s", out)
	}

	// Status: active.
	out, err = runCtl(t, ledgerURL, keystore, "status", id)
	if err != nil {
		t.Fatalf("status: %v\n%s", err, out)
	}
	if !strings.Contains(out, "active") {
		t.Fatalf("status output: %s", out)
	}

	// List shows the owned photo.
	out, err = runCtl(t, ledgerURL, keystore, "list")
	if err != nil || !strings.Contains(out, id) {
		t.Fatalf("list: %v\n%s", err, out)
	}

	// Revoke, then status shows revoked.
	if out, err = runCtl(t, ledgerURL, keystore, "revoke", id); err != nil {
		t.Fatalf("revoke: %v\n%s", err, out)
	}
	out, err = runCtl(t, ledgerURL, keystore, "status", id)
	if err != nil || !strings.Contains(out, "revoked") {
		t.Fatalf("status after revoke: %v\n%s", err, out)
	}

	// Audit the (honest) ledger.
	out, err = runCtl(t, ledgerURL, keystore, "audit")
	if err != nil || !strings.Contains(out, "healthy") {
		t.Fatalf("audit: %v\n%s", err, out)
	}

	// The proxy blocks the revoked photo once a refresh finds the
	// ledger's newest epoch at least a second old and the revoked set
	// changed, so that the pull publishes the next epoch: the bounded
	// propagation window of Nongoal #4. Poll until it closes.
	var v struct {
		Displayable bool   `json:"displayable"`
		State       string `json:"state"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Post(proxyURL+"/v1/refresh", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		resp, err = http.Get(proxyURL + "/v1/validate?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State == "revoked" {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if v.Displayable || v.State != "revoked" {
		t.Errorf("proxy validate never converged: %+v", v)
	}

	// Unrevoke works with the persisted keystore.
	if out, err = runCtl(t, ledgerURL, keystore, "unrevoke", id); err != nil {
		t.Fatalf("unrevoke: %v\n%s", err, out)
	}
}

func TestBenchHarnessCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	out, err := exec.Command(filepath.Join(binDir, "irs-bench"), "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("-list: %v\n%s", err, out)
	}
	for _, id := range []string{"e1", "e9", "e10", "ablation-filters"} {
		if !strings.Contains(string(out), id) {
			t.Errorf("-list missing %s", id)
		}
	}
	out, err = exec.Command(filepath.Join(binDir, "irs-bench"),
		"-run", "e1,e8", "-scale", "quick", "-seed", "7").CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "== E1:") || !strings.Contains(string(out), "== E8:") {
		t.Errorf("bench output missing tables:\n%s", out)
	}
	// Unknown experiment fails loudly.
	if _, err := exec.Command(filepath.Join(binDir, "irs-bench"), "-run", "nope").CombinedOutput(); err == nil {
		t.Error("unknown experiment exited 0")
	}

	// Usage errors exit 2 before anything runs: a -scale that is not one
	// value, and the retired suites' mode flags, which must be undefined
	// rather than hidden.
	undefined := "flag provided but not defined"
	for _, tc := range []struct {
		args []string
		want []string // substrings of the combined output
	}{
		{[]string{"-run", "e1", "-scale", "quick,full"}, []string{"bad -scale"}},
		{[]string{"-chaos"}, []string{undefined, "-chaos"}},
		{[]string{"-adversary"}, []string{undefined, "-adversary"}},
		{[]string{"-list", "-lookup"}, []string{undefined, "-lookup"}},
		{[]string{"-topology"}, []string{undefined, "-topology"}},
		{[]string{"-serve"}, []string{undefined}},
		{[]string{"-upload"}, []string{undefined}},
		{[]string{"-storage"}, []string{undefined}},
		{[]string{"-obs-compare"}, []string{undefined}},
		{[]string{"-parallel-out", filepath.Join(t.TempDir(), "p.json")}, []string{undefined}},
	} {
		out, err := exec.Command(filepath.Join(binDir, "irs-bench"), tc.args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit 2\n%s", tc.args, err, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(string(out), w) {
				t.Errorf("%v: output does not mention %q:\n%s", tc.args, w, out)
			}
		}
	}
}

func TestLedgerRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	out, err := exec.Command(filepath.Join(binDir, "irs-ledger"), "-id", "0").CombinedOutput()
	if err == nil {
		t.Errorf("id=0 accepted:\n%s", out)
	}
	out, err = exec.Command(filepath.Join(binDir, "irs-proxy")).CombinedOutput()
	if err == nil {
		t.Errorf("proxy with no ledgers accepted:\n%s", out)
	}
	// The one id=url parser behind every binary's -ledger and
	// -trust-ledger refuses an empty URL and a repeated id: a usage
	// error, exit 2. (A binary that accepted one would serve until the
	// deadline kills it.)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, args := range [][]string{
		{"irs-proxy", "-addr", "127.0.0.1:0", "-ledger", "1="},
		{"irs-site", "-addr", "127.0.0.1:0", "-ledger", "1=http://127.0.0.1:1", "-ledger", "1=http://127.0.0.1:2"},
		{"irs-ledger", "-addr", "127.0.0.1:0", "-trust-ledger", "2="},
	} {
		out, err := exec.CommandContext(ctx, filepath.Join(binDir, args[0]), args[1:]...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%q: %v, want exit 2:\n%s", args, err, out)
		}
	}
	// A non-positive interval is refused at start-up by name, not left
	// to panic in time.NewTicker once the binary serves. A panic exits
	// 2 as well, so the output must name the flag and hold no panic.
	args := []string{"irs-site", "-addr", "127.0.0.1:0", "-ledger", "1=http://127.0.0.1:1", "-recheck-interval", "0"}
	out, err = exec.CommandContext(ctx, filepath.Join(binDir, args[0]), args[1:]...).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("%q: %v, want exit 2:\n%s", args, err, out)
	}
	if !strings.Contains(string(out), "-recheck-interval") || strings.Contains(string(out), "panic:") {
		t.Errorf("%q: output does not refuse -recheck-interval by name:\n%s", args, out)
	}
	// The filter cadence and WAL mode flags are gone: naming one is a
	// usage error, exit 2, as an unknown flag.
	for _, args := range [][]string{
		{"irs-ledger", "-snapshot-interval", "1h"},
		{"irs-ledger", "-wal-sync", "os"},
		{"irs-proxy", "-refresh-interval", "1h"},
		{"irs-relay", "-refresh-interval", "1h"},
	} {
		out, err := exec.CommandContext(ctx, filepath.Join(binDir, args[0]), args[1:]...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: "+args[1]) {
			t.Errorf("%q: %v, want exit 2 on an unknown flag:\n%s", args, err, out)
		}
	}
}

// TestAppealViaCLI runs the §5 attack against two real ledger
// processes and resolves it with `irsctl appeal`.
func TestAppealViaCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dataDir := t.TempDir()

	// Ledger 1 (victim's).
	p1 := freePort(t)
	url1 := fmt.Sprintf("http://127.0.0.1:%d", p1)
	startDaemon(t, "irs-ledger", url1+"/v1/keys",
		"-id", "1", "-addr", fmt.Sprintf("127.0.0.1:%d", p1))
	// Ledger 2 (attacker's), trusting ledger 1's timestamps for appeals.
	p2 := freePort(t)
	url2 := fmt.Sprintf("http://127.0.0.1:%d", p2)
	startDaemon(t, "irs-ledger", url2+"/v1/keys",
		"-id", "2", "-addr", fmt.Sprintf("127.0.0.1:%d", p2),
		"-trust-ledger", "1="+url1)

	victimKeys := filepath.Join(dataDir, "victim.json")
	attackerKeys := filepath.Join(dataDir, "attacker.json")
	origFile := filepath.Join(dataDir, "orig.irsp")

	// Victim shoots + claims + revokes on ledger 1.
	out, err := runCtl(t, url1, victimKeys, "shoot", "99", origFile)
	if err != nil {
		t.Fatalf("shoot: %v\n%s", err, out)
	}
	var victimID string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "claimed ") {
			victimID = strings.TrimSpace(strings.TrimPrefix(line, "claimed "))
		}
	}
	if out, err := runCtl(t, url1, victimKeys, "revoke", victimID); err != nil {
		t.Fatalf("revoke: %v\n%s", err, out)
	}

	// Attacker: erase watermark + strip metadata in-process (the part a
	// CLI would never ship), then claims the copy on ledger 2 via CLI.
	orig, err := readIRSPFile(origFile)
	if err != nil {
		t.Fatal(err)
	}
	stolen, err := watermark.Erase(orig, watermark.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	stolen.Meta.StripAll()
	stolenFile := filepath.Join(dataDir, "stolen.irsp")
	if err := writeIRSPFile(stolenFile, stolen); err != nil {
		t.Fatal(err)
	}
	copyFile := filepath.Join(dataDir, "attack-copy.irsp")
	out, err = runCtl(t, url2, attackerKeys, "claim", stolenFile, copyFile)
	if err != nil {
		t.Fatalf("attacker claim: %v\n%s", err, out)
	}
	var attackID string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "claimed ") {
			attackID = strings.Fields(strings.TrimPrefix(line, "claimed "))[0]
		}
	}
	if attackID == "" {
		t.Fatalf("no attack id in: %s", out)
	}

	// The attack works: the copy is active on ledger 2.
	out, err = runCtl(t, url2, attackerKeys, "status", attackID)
	if err != nil || !strings.Contains(out, "active") {
		t.Fatalf("attack status: %v\n%s", err, out)
	}

	// Victim appeals to ledger 2 via CLI, presenting the vaulted
	// original (the pixels the claim timestamp covers).
	out, err = runCtl(t, url1, victimKeys, "appeal", origFile+".orig", copyFile, attackID, url2)
	if err != nil {
		t.Fatalf("appeal: %v\n%s", err, out)
	}
	if !strings.Contains(out, "upheld") {
		t.Fatalf("appeal output: %s", out)
	}
	out, err = runCtl(t, url2, attackerKeys, "status", attackID)
	if err != nil || !strings.Contains(out, "permanently-revoked") {
		t.Fatalf("post-appeal status: %v\n%s", err, out)
	}
}

func readIRSPFile(path string) (*photo.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return photo.DecodeIRSP(f)
}

func writeIRSPFile(path string, im *photo.Image) error {
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

// TestSiteBinary drives the aggregator service end to end: ledger +
// site processes, CLI-claimed photo, upload/serve/recheck over HTTP.
func TestSiteBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dataDir := t.TempDir()
	lp := freePort(t)
	ledgerURL := fmt.Sprintf("http://127.0.0.1:%d", lp)
	startDaemon(t, "irs-ledger", ledgerURL+"/v1/keys",
		"-id", "1", "-addr", fmt.Sprintf("127.0.0.1:%d", lp))

	sp := freePort(t)
	siteURL := fmt.Sprintf("http://127.0.0.1:%d", sp)
	startDaemon(t, "irs-site", siteURL+"/v1/stats",
		"-addr", fmt.Sprintf("127.0.0.1:%d", sp),
		"-ledger", "1="+ledgerURL,
		"-recheck-interval", "150ms")

	keystore := filepath.Join(dataDir, "keys.json")
	photoFile := filepath.Join(dataDir, "photo.irsp")
	out, err := runCtl(t, ledgerURL, keystore, "shoot", "11", photoFile)
	if err != nil {
		t.Fatalf("shoot: %v\n%s", err, out)
	}
	var id string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "claimed ") {
			id = strings.TrimSpace(strings.TrimPrefix(line, "claimed "))
		}
	}

	// Upload the labeled photo to the site.
	raw, err := os.ReadFile(photoFile)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(siteURL+"/v1/upload", "application/x-irsp", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Accepted bool   `json:"accepted"`
		ID       string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !up.Accepted || up.ID != id {
		t.Fatalf("upload: %+v", up)
	}

	// Served with proof.
	resp, err = http.Get(siteURL + "/v1/photo?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("serve status %d", resp.StatusCode)
	}

	// Revoke via CLI; the site's recheck timer takes it down.
	if out, err := runCtl(t, ledgerURL, keystore, "revoke", id); err != nil {
		t.Fatalf("revoke: %v\n%s", err, out)
	}
	deadline := time.Now().Add(10 * time.Second)
	status := 0
	for time.Now().Before(deadline) {
		resp, err := http.Get(siteURL + "/v1/photo?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		status = resp.StatusCode
		if status == http.StatusNotFound {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if status != http.StatusNotFound {
		t.Errorf("revoked photo still served (status %d)", status)
	}
}

// TestSiteAppealViaCLI runs §3.2's site branch against real processes:
// a victim's unlabeled original leaks to an irs-site that claims it
// custodially, a thief who downloads the hosted copy and claims it
// later is refused by the site's desk, and the victim's `irsctl
// appeal` to the site takes the photo down and revokes the custodial
// claim.
func TestSiteAppealViaCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dataDir := t.TempDir()
	lp := freePort(t)
	ledgerURL := fmt.Sprintf("http://127.0.0.1:%d", lp)
	startDaemon(t, "irs-ledger", ledgerURL+"/v1/keys",
		"-id", "1", "-addr", fmt.Sprintf("127.0.0.1:%d", lp))
	sp := freePort(t)
	siteURL := fmt.Sprintf("http://127.0.0.1:%d", sp)
	startDaemon(t, "irs-site", siteURL+"/v1/stats",
		"-addr", fmt.Sprintf("127.0.0.1:%d", sp),
		"-ledger", "1="+ledgerURL, "-custodial-ledger", "1")

	victimKeys := filepath.Join(dataDir, "victim.json")
	thiefKeys := filepath.Join(dataDir, "thief.json")
	photoFile := filepath.Join(dataDir, "photo.irsp")
	if out, err := runCtl(t, ledgerURL, victimKeys, "shoot", "12", photoFile); err != nil {
		t.Fatalf("shoot: %v\n%s", err, out)
	}
	// The vaulted, unlabeled original leaks and is uploaded.
	origFile := photoFile + ".orig"
	raw, err := os.ReadFile(origFile)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(siteURL+"/v1/upload", "application/x-irsp", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Accepted  bool   `json:"accepted"`
		ID        string `json:"id"`
		Custodial bool   `json:"custodial"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !up.Accepted || !up.Custodial {
		t.Fatalf("upload: %+v", up)
	}
	photoStatus := func() int {
		t.Helper()
		resp, err := http.Get(siteURL + "/v1/photo?id=" + up.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// A thief downloads the hosted copy, claims it and appeals: the
	// site's custodial claim is the earlier one.
	resp, err = http.Get(siteURL + "/v1/photo?id=" + up.ID)
	if err != nil {
		t.Fatal(err)
	}
	hosted, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("serve: status %d, %v", resp.StatusCode, err)
	}
	hostedFile := filepath.Join(dataDir, "hosted.irsp")
	if err := os.WriteFile(hostedFile, hosted, 0o600); err != nil {
		t.Fatal(err)
	}
	if out, err := runCtl(t, ledgerURL, thiefKeys, "claim", hostedFile, filepath.Join(dataDir, "thief.irsp")); err != nil {
		t.Fatalf("thief claim: %v\n%s", err, out)
	}
	out, err := runCtl(t, ledgerURL, thiefKeys, "appeal", hostedFile, hostedFile, up.ID, siteURL)
	if err == nil || !strings.Contains(out, "rejected-not-earlier") {
		t.Fatalf("thief's appeal: %v\n%s", err, out)
	}
	if s := photoStatus(); s != http.StatusOK {
		t.Fatalf("serve status %d after a refused appeal", s)
	}

	// The victim's appeal is upheld: the site stops serving the photo
	// and the custodial claim is revoked on the ledger.
	out, err = runCtl(t, ledgerURL, victimKeys, "appeal", origFile, hostedFile, up.ID, siteURL)
	if err != nil || !strings.Contains(out, "upheld") {
		t.Fatalf("victim's appeal: %v\n%s", err, out)
	}
	if s := photoStatus(); s == http.StatusOK {
		t.Error("photo still served after an upheld appeal")
	}
	out, err = runCtl(t, ledgerURL, victimKeys, "status", up.ID)
	if err != nil || !strings.Contains(out, ": revoked") {
		t.Errorf("custodial claim after the appeal: %v\n%s", err, out)
	}
}

// TestRelayBinaries drives the oblivious path as three real processes:
// ledger, egress, ingress.
func TestRelayBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	lp := freePort(t)
	ledgerURL := fmt.Sprintf("http://127.0.0.1:%d", lp)
	startDaemon(t, "irs-ledger", ledgerURL+"/v1/keys",
		"-id", "1", "-addr", fmt.Sprintf("127.0.0.1:%d", lp))

	ep := freePort(t)
	egressURL := fmt.Sprintf("http://127.0.0.1:%d", ep)
	startDaemon(t, "irs-relay", egressURL+"/v1/relay-key",
		"-mode", "egress", "-addr", fmt.Sprintf("127.0.0.1:%d", ep),
		"-ledger", "1="+ledgerURL)

	ip := freePort(t)
	ingressURL := fmt.Sprintf("http://127.0.0.1:%d", ip)
	// The ingress has no GET endpoint; probe via the egress-backed POST
	// path readiness by polling the egress key through the ingress
	// port... simplest: start and poll a sealed round trip.
	cmd := exec.Command(filepath.Join(binDir, "irs-relay"),
		"-mode", "ingress", "-addr", fmt.Sprintf("127.0.0.1:%d", ip),
		"-egress", egressURL)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	})

	// Claim + revoke a photo via CLI so the query has a real answer.
	dataDir := t.TempDir()
	keystore := filepath.Join(dataDir, "keys.json")
	out, err := runCtl(t, ledgerURL, keystore, "shoot", "21", filepath.Join(dataDir, "p.irsp"))
	if err != nil {
		t.Fatalf("shoot: %v\n%s", err, out)
	}
	var idStr string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "claimed ") {
			idStr = strings.TrimSpace(strings.TrimPrefix(line, "claimed "))
		}
	}
	if out, err := runCtl(t, ledgerURL, keystore, "revoke", idStr); err != nil {
		t.Fatalf("revoke: %v\n%s", err, out)
	}

	// Fetch the egress key, seal a query, send via the ingress.
	resp, err := http.Get(egressURL + "/v1/relay-key")
	if err != nil {
		t.Fatal(err)
	}
	var keyResp map[string][]byte
	if err := json.NewDecoder(resp.Body).Decode(&keyResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	client, err := relay.NewClient(keyResp["key"])
	if err != nil {
		t.Fatal(err)
	}
	id, err := ids.Parse(idStr)
	if err != nil {
		t.Fatal(err)
	}
	q, pending, err := client.Seal(id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	// Poll the ingress until it answers (it may still be binding). The
	// egress holds an empty filter snapshot... the ledger built one at
	// startup before the claim, so the filter misses and the egress
	// must fall through to a live ledger query for the truth — which is
	// exactly the stale-filter path. Accept either revoked (ledger
	// answered) or active (filter answered pre-claim snapshot).
	deadline := time.Now().Add(10 * time.Second)
	var answered bool
	var state string
	for time.Now().Before(deadline) {
		resp, err := http.Post(ingressURL+"/v1/relay", "application/json", strings.NewReader(string(body)))
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		var sr relay.SealedResponse
		decodeErr := json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decodeErr != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		r, err := pending.Open(sr.Box)
		if err != nil {
			t.Fatal(err)
		}
		answered = true
		state = r.State.String()
		break
	}
	if !answered {
		t.Fatal("relay round trip never completed")
	}
	if state != "revoked" && state != "active" {
		t.Errorf("relayed state %q", state)
	}
}
