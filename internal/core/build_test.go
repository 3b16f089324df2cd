package core

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"irs/internal/camera"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/photo"
	"irs/internal/watermark"
)

// TestBuildLinksAgree runs one seeded script through an in-process and
// a loopback-HTTP build: every view decision and every status proof
// must match. Ledger keys are drawn fresh per build, so each proof's
// signature is verified against its own ledger and the rest of its bytes
// compared.
func TestBuildLinksAgree(t *testing.T) {
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	foreign, err := camera.Label(photo.Synth(12, 192, 128), ids.PhotoID{Ledger: 42, Rec: [12]byte{7}},
		"irs://ledger/42", watermark.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	script := func(overHTTP bool) []string {
		s := build(t, Spec{
			Ledgers: []ledger.Config{{ID: 1, Rand: rand.New(rand.NewSource(7))}},
			HTTP:    overHTTP,
			Clock:   func() time.Time { return now },
		})
		l, err := s.Ledger(1)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := s.Directory().ForLedger(1)
		if err != nil {
			t.Fatal(err)
		}
		var trace []string
		view := func(step string, im *photo.Image) {
			d := s.View(im)
			trace = append(trace, fmt.Sprintf("%s: display=%v reason=%q source=%v id=%v",
				step, d.Display, d.Reason, d.Source, d.ID))
		}
		prove := func(step string, id ids.PhotoID) {
			p, err := svc.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := ledger.VerifyProof(l.SigningKey(), p, now, time.Hour); err != nil {
				t.Fatalf("http=%v %s: %v", overHTTP, step, err)
			}
			unsigned := *p
			unsigned.Sig = [len(p.Sig)]byte{}
			trace = append(trace, fmt.Sprintf("%s: proof %x", step, unsigned.Marshal()))
		}
		refresh := func() {
			if err := s.RefreshFilters(); err != nil {
				t.Fatal(err)
			}
		}

		alice, err := s.NewOwner(1)
		if err != nil {
			t.Fatal(err)
		}
		labeled, owned, err := alice.ClaimAndLabel(alice.Shoot(11, 192, 128))
		if err != nil {
			t.Fatal(err)
		}
		refresh()
		view("claimed", labeled)
		prove("claimed", owned.ID)

		if err := alice.Revoke(owned.ID); err != nil {
			t.Fatal(err)
		}
		refresh()
		view("revoked", labeled)
		view("revoked again", labeled)
		prove("revoked", owned.ID)
		stripped, err := photo.StripViaPNM(labeled)
		if err != nil {
			t.Fatal(err)
		}
		view("stripped", stripped)
		view("foreign ledger", foreign)

		if err := alice.Unrevoke(owned.ID); err != nil {
			t.Fatal(err)
		}
		s.Proxy().Validator().Invalidate(owned.ID)
		refresh()
		view("unrevoked", labeled)
		prove("unrevoked", owned.ID)
		return trace
	}
	inProcess, overHTTP := script(false), script(true)
	if len(inProcess) != len(overHTTP) {
		t.Fatalf("traces differ in length: %d vs %d", len(inProcess), len(overHTTP))
	}
	for i := range inProcess {
		if inProcess[i] != overHTTP[i] {
			t.Errorf("step %d:\n loopback %s\n http     %s", i, inProcess[i], overHTTP[i])
		}
	}
	// The script must reach every answer kind, or agreeing proves little.
	for i, want := range []string{"source=filter", "source=ledger", "source=cache", "reason=\"revoked\"", "validation failed"} {
		found := false
		for _, line := range inProcess {
			found = found || strings.Contains(line, want)
		}
		if !found {
			t.Errorf("check %d: no step answered %s:\n%v", i, want, inProcess)
		}
	}
}

func TestEndpointsFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"1=http://a", "2=http://b"}, true},
		{[]string{"0=http://a"}, false},
		{[]string{"x=http://a"}, false},
		{[]string{"http://a"}, false},
		{[]string{"1="}, false},
		{[]string{"1=http://a", "1=http://b"}, false},
	} {
		e := Endpoints{}
		var err error
		for _, a := range tc.args {
			if err = e.Set(a); err != nil {
				break
			}
		}
		if (err == nil) != tc.ok {
			t.Errorf("%q: err %v, want ok=%v", tc.args, err, tc.ok)
		}
		if tc.ok && (e[1] != "http://a" || e[2] != "http://b") {
			t.Errorf("%q parsed to %v", tc.args, e)
		}
	}
}

// TestServeDrainsInFlightRequests: after the stop signal, serve returns
// only once the request in flight has been answered, so a binary closes
// its ledger after its last handler and never under one.
func TestServeDrainsInFlightRequests(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, h) }()
	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			body <- err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body <- string(b)
	}()
	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("serve returned with a request in flight: %v", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}
	if b := <-body; b != "done" {
		t.Errorf("in-flight request answered %q", b)
	}
}
