package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// armedTraceparent builds a deterministic W3C traceparent and returns it
// with the 32-hex trace id it carries.
func armedTraceparent(n uint64) (header, tid string) {
	tid = fmt.Sprintf("%016x%016x", n, n*2654435761+1)
	return fmt.Sprintf("00-%s-%016x-01", tid, n+7), tid
}

// getJSONWith fetches url with extra headers into out, returning the
// response status and the X-Clear-Node header.
func getJSONWith(t *testing.T, url string, hdr map[string]string, out any) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("NewRequest %s: %v", url, err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, body)
		}
	}
	return resp.StatusCode, resp.Header.Get("X-Clear-Node")
}

// fetchStitched polls the federated trace endpoint until the stitch spans
// at least two nodes (the peer's segment lands asynchronously with the
// relayed response) or the retry budget runs out.
func fetchStitched(t *testing.T, base, tid string) FleetTrace {
	t.Helper()
	var ft FleetTrace
	for i := 0; i < 40; i++ {
		code, _ := getJSONWith(t, base+"/v1/traces/"+tid, nil, &ft)
		if code == http.StatusOK && len(ft.Nodes) >= 2 {
			return ft
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("trace %s never stitched across >=2 nodes (last: nodes=%v)", tid, ft.Nodes)
	return ft
}

// TestFederatedTraceStitch drives a forwarded request through a non-owner
// replica and checks the trace resolves AT THAT NON-OWNER as one stitched
// tree: spans from both hops under the client's trace id, including a
// `forward` span carrying the peer and ring epoch, every span tagged with
// its origin node — and that the stitch is byte-for-byte deterministic
// across repeated fetches.
func TestFederatedTraceStitch(t *testing.T) {
	tr := newTrio(t)
	_, users := fixture(t)
	u := users[0]

	resp, body := tr.post(t, tr.https[0].URL, "/v1/sessions",
		CreateSessionRequest{UserID: u.ID, ExpectedWindows: 4})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var cr CreateSessionResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("create response: %v", err)
	}
	owner := tr.ring.Owner(cr.ID)
	entry := ""
	for i := range tr.https {
		if tr.https[i].URL != owner {
			entry = tr.https[i].URL
			break
		}
	}

	header, tid := armedTraceparent(41)
	code, servedBy := getJSONWith(t, entry+"/v1/sessions/"+cr.ID,
		map[string]string{"traceparent": header}, nil)
	if code != http.StatusOK {
		t.Fatalf("forwarded status GET: %d", code)
	}
	if servedBy != owner {
		t.Fatalf("X-Clear-Node = %q, want owner %q (forward attribution)", servedBy, owner)
	}

	ft := fetchStitched(t, entry, tid)
	if ft.TraceID != tid {
		t.Fatalf("stitched trace id = %q, want %q", ft.TraceID, tid)
	}
	nodes := map[string]bool{}
	haveFwd := false
	var fwdPeer, fwdEpoch string
	for _, sp := range ft.Spans {
		if sp.Node == "" {
			t.Fatalf("span %s carries no node tag", sp.Name)
		}
		nodes[sp.Node] = true
		if sp.Name == "forward" {
			haveFwd = true
			fwdPeer = sp.Attrs["peer"]
			fwdEpoch = sp.Attrs["epoch"]
		}
	}
	if len(nodes) < 2 {
		t.Fatalf("stitched spans cover %d node(s), want >=2: %v", len(nodes), ft.Nodes)
	}
	if !haveFwd {
		t.Fatalf("no forward span in stitched trace: %+v", ft.Spans)
	}
	if fwdPeer != owner {
		t.Fatalf("forward span peer = %q, want %q", fwdPeer, owner)
	}
	if fwdEpoch == "" {
		t.Fatalf("forward span carries no epoch attribute")
	}

	// Determinism: a second stitch of the same trace is identical.
	var again FleetTrace
	if code, _ := getJSONWith(t, entry+"/v1/traces/"+tid, nil, &again); code != http.StatusOK {
		t.Fatalf("second stitch: %d", code)
	}
	if !reflect.DeepEqual(ft, again) {
		t.Fatalf("stitch is non-deterministic:\nfirst:  %+v\nsecond: %+v", ft, again)
	}
}

// TestFederatedTraceLoopGuard checks an unknown id terminates: the full
// fan-out answers 404 after checking peers (no recursion — the federation
// header forces peers to answer local-only, which is also checked
// directly).
func TestFederatedTraceLoopGuard(t *testing.T) {
	tr := newTrio(t)
	const missing = "00000000000000000000000000000abc"
	done := make(chan int, 1)
	go func() {
		code, _ := getJSONWith(t, tr.https[0].URL+"/v1/traces/"+missing, nil, nil)
		done <- code
	}()
	select {
	case code := <-done:
		if code != http.StatusNotFound {
			t.Fatalf("federated miss = %d, want 404", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("federated trace lookup for unknown id did not terminate")
	}
	// A fan-out leg (federation header set) must answer local-only.
	code, _ := getJSONWith(t, tr.https[1].URL+"/v1/traces/"+missing,
		map[string]string{federationHeader: tr.https[0].URL}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("federation leg miss = %d, want 404", code)
	}
}

// TestFederatedTracePartialOnDeadPeer kills one replica and checks both
// fan-outs stay useful: the trace lookup returns the surviving segments
// with the dead peer listed unreachable, and /v1/fleet reports the dead
// peer as an explicit unreachable entry while the survivors' stats merge.
func TestFederatedTracePartialOnDeadPeer(t *testing.T) {
	tr := newTrio(t)

	// Record a trace at replica 0 (stats is a traced endpoint).
	header, tid := armedTraceparent(99)
	if code, _ := getJSONWith(t, tr.https[0].URL+"/v1/stats",
		map[string]string{"traceparent": header}, nil); code != http.StatusOK {
		t.Fatalf("traced stats GET: %d", code)
	}

	dead := tr.https[2].URL
	tr.https[2].Close()

	var ft FleetTrace
	if code, _ := getJSONWith(t, tr.https[0].URL+"/v1/traces/"+tid, nil, &ft); code != http.StatusOK {
		t.Fatalf("partial trace fetch: %d", code)
	}
	if len(ft.Nodes) == 0 || ft.Nodes[0] != tr.https[0].URL {
		t.Fatalf("partial stitch nodes = %v, want local segment", ft.Nodes)
	}
	found := false
	for _, n := range ft.Unreachable {
		found = found || n == dead
	}
	if !found {
		t.Fatalf("dead peer %s not reported unreachable: %v", dead, ft.Unreachable)
	}

	var fleet FleetReport
	if code, _ := getJSONWith(t, tr.https[0].URL+"/v1/fleet", nil, &fleet); code != http.StatusOK {
		t.Fatalf("fleet with dead peer: %d", code)
	}
	if len(fleet.Nodes) != 3 {
		t.Fatalf("fleet reports %d nodes, want 3", len(fleet.Nodes))
	}
	if fleet.Invariants.AllReachable {
		t.Fatalf("invariants claim all reachable with a dead peer")
	}
	reachable := 0
	for _, nr := range fleet.Nodes {
		if nr.Unreachable {
			if nr.Node != dead {
				t.Fatalf("wrong peer unreachable: %s (dead is %s)", nr.Node, dead)
			}
			continue
		}
		reachable++
		if nr.Stats == nil || nr.Stats.Node != nr.Node {
			t.Fatalf("reachable node %s: stats missing or misattributed", nr.Node)
		}
	}
	if reachable != 2 {
		t.Fatalf("%d reachable nodes, want 2", reachable)
	}
}

// TestFleetReportAndJournalMerge checks the healthy-path fleet view: all
// members reported with epoch agreement and consistent session sums, and
// journal events recorded on different nodes merge into one stream that
// is identical no matter which replica builds the report.
func TestFleetReportAndJournalMerge(t *testing.T) {
	tr := newTrio(t)
	_, users := fixture(t)
	for i := 0; i < 2; i++ {
		resp, body := tr.post(t, tr.https[i].URL, "/v1/sessions",
			CreateSessionRequest{UserID: users[i].ID, ExpectedWindows: 4})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: %d %s", i, resp.StatusCode, body)
		}
	}
	tr.srvs[0].journal.Record(nil, "chaos", "synthetic event on node 0")
	tr.srvs[1].journal.Record(nil, "chaos", "synthetic event on node 1")

	var rep FleetReport
	if code, _ := getJSONWith(t, tr.https[0].URL+"/v1/fleet", nil, &rep); code != http.StatusOK {
		t.Fatalf("fleet: %d", code)
	}
	if len(rep.Nodes) != 3 {
		t.Fatalf("fleet reports %d nodes, want 3", len(rep.Nodes))
	}
	inv := rep.Invariants
	if !inv.AllReachable || !inv.EpochAgreement || !inv.SessionsConsistent || !inv.ReplayQueuesEmpty {
		t.Fatalf("healthy trio violates invariants: %+v", inv)
	}
	if rep.Summary.Sessions != 2 || rep.Summary.OwnedSessions != 2 {
		t.Fatalf("summary sessions = %d/%d owned, want 2/2",
			rep.Summary.Sessions, rep.Summary.OwnedSessions)
	}
	evNodes := map[string]bool{}
	for _, ev := range rep.Events {
		evNodes[ev.Node] = true
	}
	if !evNodes[tr.https[0].URL] || !evNodes[tr.https[1].URL] {
		t.Fatalf("merged events miss a node's segment: %+v", rep.Events)
	}

	// The same report built by another replica merges events identically.
	var rep2 FleetReport
	if code, _ := getJSONWith(t, tr.https[2].URL+"/v1/fleet", nil, &rep2); code != http.StatusOK {
		t.Fatalf("fleet via replica 2: %d", code)
	}
	if !reflect.DeepEqual(rep.Events, rep2.Events) {
		t.Fatalf("event merge depends on the merging replica:\nr0: %+v\nr2: %+v",
			rep.Events, rep2.Events)
	}
}
