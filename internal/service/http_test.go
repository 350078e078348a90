package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// apiServer starts a manual-tick daemon behind an httptest server.
func apiServer(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	d := manual(t, Options{Epsilon: 0.01})
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return d, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status = %d (%s), want %d", resp.StatusCode, e.Error, want)
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	_, srv := apiServer(t)

	wantStatus(t, postJSON(t, srv.URL+"/v1/join", JoinRequest{Peer: 1, ISP: 0}), 200)
	wantStatus(t, postJSON(t, srv.URL+"/v1/join", JoinRequest{Peer: 2, ISP: 1}), 200)
	wantStatus(t, postJSON(t, srv.URL+"/v1/offer", OfferRequest{Peer: 1, Capacity: 2}), 200)
	wantStatus(t, postJSON(t, srv.URL+"/v1/bid", BidBatch{Peer: 2, Bids: []WireBid{{
		Video: 0, Chunk: 3, Value: 1.5,
		Candidates: []WireCandidate{{Peer: 1, Cost: 0.25}},
	}}}), 200)

	resp := postJSON(t, srv.URL+"/v1/tick", struct{}{})
	var tick TickResponse
	if err := json.NewDecoder(resp.Body).Decode(&tick); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tick.Slot != 0 || tick.Grants != 1 || tick.Welfare != 1.25 {
		t.Fatalf("tick response: %+v", tick)
	}

	resp, err := http.Get(srv.URL + "/v1/grants?peer=2")
	if err != nil {
		t.Fatal(err)
	}
	var grants GrantsResponse
	if err := json.NewDecoder(resp.Body).Decode(&grants); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(grants.Grants) != 1 || grants.Grants[0].Uploader != 1 || grants.Grants[0].Chunk != 3 {
		t.Fatalf("grants response: %+v", grants)
	}

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Slot != 1 || stats.Peers != 2 || stats.HeapAllocBytes == 0 {
		t.Fatalf("stats response: %+v", stats)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv := apiServer(t)

	// Wrong method.
	resp, err := http.Get(srv.URL + "/v1/join")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusMethodNotAllowed)

	// Malformed body.
	resp, err = http.Post(srv.URL+"/v1/join", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusBadRequest)

	// Unknown field (wire-contract drift guard).
	resp, err = http.Post(srv.URL+"/v1/join", "application/json", strings.NewReader(`{"peer":1,"ispp":0}`))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusBadRequest)

	// Domain errors map to 4xx.
	wantStatus(t, postJSON(t, srv.URL+"/v1/offer", OfferRequest{Peer: 42, Capacity: 1}), http.StatusBadRequest)
	wantStatus(t, postJSON(t, srv.URL+"/v1/leave", LeaveRequest{Peer: 42}), http.StatusNotFound)

	// Bad grants query.
	resp, err = http.Get(srv.URL + "/v1/grants?peer=x")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusBadRequest)
}

// TestHTTPBidBatchAllOrNothing pins whole-batch validation: a batch holding
// a bid the solver would refuse — an uploader named twice, a non-finite
// value - cost — gets 400 and books none of its bids, so later ticks solve.
func TestHTTPBidBatchAllOrNothing(t *testing.T) {
	d, srv := apiServer(t)
	wantStatus(t, postJSON(t, srv.URL+"/v1/join", JoinRequest{Peer: 1, ISP: 0}), 200)
	wantStatus(t, postJSON(t, srv.URL+"/v1/join", JoinRequest{Peer: 2, ISP: 0}), 200)
	good := WireBid{Video: 0, Chunk: 3, Value: 1.5, Candidates: []WireCandidate{{Peer: 1, Cost: 0.25}}}
	for _, bad := range []WireBid{
		{Video: 0, Chunk: 4, Value: 1.5, Candidates: []WireCandidate{{Peer: 1, Cost: 0.25}, {Peer: 1, Cost: 0.5}}},
		{Video: 0, Chunk: 4, Value: 1.7e308, Candidates: []WireCandidate{{Peer: 1, Cost: -1.7e308}}},
	} {
		wantStatus(t, postJSON(t, srv.URL+"/v1/bid", BidBatch{Peer: 2, Bids: []WireBid{good, bad}}), http.StatusBadRequest)
		if st := d.Stats(); st.PendingBids != 0 {
			t.Fatalf("refused batch left %d bids booked", st.PendingBids)
		}
	}
	for tick := 0; tick < 3; tick++ {
		wantStatus(t, postJSON(t, srv.URL+"/v1/offer", OfferRequest{Peer: 1, Capacity: 1}), 200)
		wantStatus(t, postJSON(t, srv.URL+"/v1/bid", BidBatch{Peer: 2, Bids: []WireBid{good}}), 200)
		resp := postJSON(t, srv.URL+"/v1/tick", struct{}{})
		var tr TickResponse
		err := json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || tr.Grants != 1 {
			t.Fatalf("tick %d: status %d, %+v, %v; want 200 with 1 grant", tick, resp.StatusCode, tr, err)
		}
	}
}

func TestHTTPMetricsAndHealth(t *testing.T) {
	d, srv := apiServer(t)

	// Generate one instrumented request first.
	wantStatus(t, postJSON(t, srv.URL+"/v1/join", JoinRequest{Peer: 1}), 200)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := buf.String()
	for _, want := range []string{
		"schedulerd_http_requests_total 1",
		"schedulerd_joins_total 1",
		"schedulerd_http_request_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, 200)

	// Error accounting: one failed request increments the error counter.
	wantStatus(t, postJSON(t, srv.URL+"/v1/leave", LeaveRequest{Peer: 99}), http.StatusNotFound)
	errs := parseExposition(t, scrapeMetrics(t, d))["schedulerd_http_errors_total"]
	if got := errs.samples["schedulerd_http_errors_total"]; got != 1 {
		t.Fatalf("httpErrors = %v, want 1", got)
	}
}

// TestHTTPOversizedBody pins 413 for a body over 4 MiB on every POST verb,
// whether the limit falls inside the JSON value or after the value ends; the
// second used to be answered 200, and a bid body of that shape booked.
func TestHTTPOversizedBody(t *testing.T) {
	d, srv := apiServer(t)
	wantStatus(t, postJSON(t, srv.URL+"/v1/join", JoinRequest{Peer: 1, ISP: 0}), 200)
	wantStatus(t, postJSON(t, srv.URL+"/v1/join", JoinRequest{Peer: 2, ISP: 0}), 200)
	pad := 5 << 20
	for verb, body := range map[string]string{
		"join":  `{"peer":3,"isp":0}`,
		"leave": `{"peer":1}`,
		"offer": `{"peer":1,"capacity":2}`,
		"bid":   `{"peer":2,"bids":[{"video":0,"chunk":3,"value":1.5,"candidates":[{"peer":1,"cost":0.25}]}]}`,
	} {
		for _, big := range []string{
			fmt.Sprintf(`{"peer":1,"isp":%s1}`, strings.Repeat("0", pad)),
			body + strings.Repeat(" ", pad),
		} {
			resp, err := http.Post(srv.URL+"/v1/"+verb, "application/json", strings.NewReader(big))
			if err != nil {
				t.Fatal(err)
			}
			wantStatus(t, resp, http.StatusRequestEntityTooLarge)
		}
	}
	if st := d.Stats(); st.Peers != 2 || st.PendingBids != 0 || st.PendingOffers != 0 {
		t.Fatalf("an oversized body took effect: %+v", st)
	}
}

// TestHTTPTrailingData pins that a POST body is exactly one JSON value:
// trailing bytes other than whitespace get 400 on every verb, whichever
// decoder the body takes, and nothing is booked.
func TestHTTPTrailingData(t *testing.T) {
	d, srv := apiServer(t)
	wantStatus(t, postJSON(t, srv.URL+"/v1/join", JoinRequest{Peer: 1, ISP: 0}), 200)
	wantStatus(t, postJSON(t, srv.URL+"/v1/join", JoinRequest{Peer: 2, ISP: 0}), 200)
	bid := `{"peer":2,"bids":[{"video":0,"chunk":3,"value":1.5,"candidates":[{"peer":1,"cost":0.25}]}]}`
	post := func(verb, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/"+verb, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	for _, c := range []struct{ verb, body string }{
		{"join", `{"peer":3,"isp":0} trailing`},
		{"join", `{"peer":3,"isp":0}{"peer":4}`},
		{"leave", `{"peer":1}{}`},
		{"offer", `{"peer":1,"capacity":2} trailing`},
		{"bid", `{"peer":2,"bids":[]}{"peer":99}`},
		{"bid", bid + "garbage"},
		{"bid", `{"PEER":2,"bids":[]} x`}, // not canonical: encoding/json's path
	} {
		status, msg := post(c.verb, c.body)
		if status != http.StatusBadRequest || !strings.Contains(msg, "trailing data") {
			t.Errorf("%s %q: %d %q, want 400 trailing data", c.verb, c.body, status, msg)
		}
	}
	if st := d.Stats(); st.Peers != 2 || st.PendingBids != 0 || st.PendingOffers != 0 {
		t.Fatalf("a body with trailing data took effect: %+v", st)
	}
	for _, c := range []struct{ verb, body string }{
		{"offer", "{\"peer\":1,\"capacity\":2} \t\r\n"},
		{"bid", bid + "\n"},
	} {
		if status, msg := post(c.verb, c.body); status != http.StatusOK {
			t.Errorf("%s %q: %d %q, want 200", c.verb, c.body, status, msg)
		}
	}
}

// TestQueryGetMatchesURLQuery pins the grants handler's query reader to
// r.URL.Query().Get, case by case.
func TestQueryGetMatchesURLQuery(t *testing.T) {
	for _, raw := range []string{
		"",
		"peer=5",
		"peer=5&peer=6",     // repeated key: first wins
		"x=1&peer=7&peer=8", // repeated key after another
		"peer=%35",          // percent escape in the value
		"pe%65r=9",          // percent escape in the key
		"peer=%2D3",
		"peer=5+",    // '+' is a space
		"+peer=5",    // ... also in the key
		"peer=1%2B2", // escaped '+'
		"peer=5;x=1", // ';' voids the pair
		"x=1;peer=5&peer=6",
		"peer=%zz&peer=4", // malformed value: skipped
		"%zz=1&peer=3",    // malformed key: skipped
		"peer=%4",         // truncated escape
		"peer",            // no '='
		"peer=",           // empty value
		"=5&peer=2",       // empty key
		"&&peer=4&",       // empty pairs
		"other=1",         // absent
		"peer=6&peer=%zz",
		"peer=a=b", // '=' inside the value
	} {
		want := (&url.URL{RawQuery: raw}).Query().Get("peer")
		if got := queryGet(raw, "peer"); got != want {
			t.Errorf("queryGet(%q) = %q, url.Query().Get = %q", raw, got, want)
		}
	}
}
