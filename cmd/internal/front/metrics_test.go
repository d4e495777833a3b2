package front

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestServeMetrics pins the live endpoint: /metrics serves the
// snapshot function's value as JSON and the pprof index is mounted.
func TestServeMetrics(t *testing.T) {
	type snap struct {
		Windows int `json:"windows"`
	}
	ms, err := ServeMetrics("127.0.0.1:0", func() any { return snap{Windows: 42} })
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	body, err := ms.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	var got snap
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("metrics body is not JSON: %v\n%s", err, body)
	}
	if got.Windows != 42 {
		t.Fatalf("metrics served %+v, want windows 42", got)
	}

	resp, err := http.Get("http://" + ms.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %s", resp.Status)
	}
}
