package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzSweepRequest posts raw bytes to the v1 sweep endpoint under a 1 s
// request timeout. Whatever a client sends, the daemon answers a 4xx,
// a 504 or a 200 whose table values are finite and non-negative: never
// a panic, never a 500. The committed corpus under
// testdata/fuzz/FuzzSweepRequest holds a valid LeNet-5 sweep of each
// kind, the points that once got a 500 or a negative EDP (a zero
// buffer, a subarray count that does not divide the rows, and batches
// whose counts would leave the exact range), and a values list one
// past maxSweepValues.
func FuzzSweepRequest(f *testing.F) {
	h := NewHandler(New(Options{Workers: 1, CacheEntries: 8}), time.Second)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/sweep", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			if rec.Code != http.StatusGatewayTimeout && (rec.Code < 400 || rec.Code >= 500) {
				t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
			}
			return
		}
		var resp SweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 reply does not decode: %v: %s", err, rec.Body)
		}
		for _, row := range resp.Table.Rows {
			for _, v := range row.Values {
				if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
					t.Fatalf("body %q: row %s has a negative or non-finite value %g", body, row.Label, v)
				}
			}
		}
	})
}
