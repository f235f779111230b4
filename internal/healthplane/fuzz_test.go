package healthplane

import (
	"net/http/httptest"
	"testing"

	"lakego/internal/core"
	"lakego/internal/cuda"
)

// FuzzHealthPlaneQuery sends raw query strings to the routes that read
// one — /flightrec.tail (cursor, max), /flightrec.json (last) — and to
// /slo.json, on a plane attached to a runtime that has served a call. A
// query is the client's input: every answer is 200, 400 or 404, never a 5xx
// or a panic.
func FuzzHealthPlaneQuery(f *testing.F) {
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	defer rt.Close()
	if _, r := rt.Lib().CuDeviceGetCount(); r != cuda.Success {
		f.Fatal(r)
	}
	h := Attach(rt).Handler()
	for _, q := range []string{"last=1", "last=x", "max=16", "cursor=%zz&max=1e9"} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, query string) {
		for _, path := range []string{"/flightrec.tail", "/flightrec.json", "/slo.json"} {
			req := httptest.NewRequest("GET", path, nil)
			req.URL.RawQuery = query
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			switch w.Code {
			case 200, 400, 404:
			default:
				t.Fatalf("GET %s?%s = %d: %s", path, query, w.Code, w.Body)
			}
		}
	})
}
