package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/jobs"
)

// FuzzSubmitSpec posts arbitrary bytes to POST /v1/jobs on a server whose
// workers never run. No body may panic the handler; a body that does not
// decode, or decodes to a spec that does not validate, is answered 400
// and nothing else; every other body is accepted (202) as the job of its
// canonical hash. Two byte-different bodies accepted with the same hash —
// the first input and its decoded spec re-encoded, or the two inputs —
// get the same job, and bodies with different hashes never share one.
func FuzzSubmitSpec(f *testing.F) {
	f.Add([]byte(`{"molecule":"water"}`), []byte(`{"molecule":"water","mode":"serial","ranks":0}`))
	f.Add([]byte(`{"molecule":"ammonia","basis":" STO-3G ","guess":"gwh","max_iter":7}`), []byte(`{"molecule":"ammonia"}`))
	f.Add([]byte("{\"xyz\":\"3\\n\\nO 0 0 0.117\\nH 0 0.757 -0.469\\nH 0 -0.757 -0.469\\n\"}"), []byte(`{"molecule":"h2o"}`))
	f.Add([]byte(`{"molecule":"water","mode":"quantum"}`), []byte(`{"molecule":"water","bogus":1}`))
	f.Add([]byte(`{"molecule":"water"} trailing`), []byte(`not json`))
	f.Add([]byte(`{"molecule":"water","conv_dens":1e400}`), []byte(`[]`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		s, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		post := func(body []byte) (int, SubmitResponse) {
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			var out SubmitResponse
			switch rec.Code {
			case http.StatusBadRequest:
			case http.StatusAccepted:
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.ID == "" || out.Hash == "" {
					t.Fatalf("202 for %q with body %q (%v)", body, rec.Body.String(), err)
				}
			default:
				t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.String())
			}
			return rec.Code, out
		}
		// sameJob holds the dedup contract between two accepted bodies.
		sameJob := func(x, y SubmitResponse, bx, by []byte) {
			if (x.Hash == y.Hash) != (x.ID == y.ID) {
				t.Fatalf("hashes %s / %s, jobs %s / %s\nbodies %q\n       %q", x.Hash, y.Hash, x.ID, y.ID, bx, by)
			}
		}

		codeA, outA := post(a)
		var spec jobs.Spec
		dec := json.NewDecoder(bytes.NewReader(a))
		dec.DisallowUnknownFields()
		decoded := dec.Decode(&spec) == nil
		if codeA == http.StatusAccepted {
			if !decoded {
				t.Fatalf("accepted %q, which does not decode", a)
			}
			if h, err := spec.Normalized().CanonicalHash(); err != nil || h != outA.Hash {
				t.Fatalf("accepted %q as hash %s, its spec hashes %s (%v)", a, outA.Hash, h, err)
			}
			again, _ := json.Marshal(spec)
			for bytes.Equal(again, a) {
				again = append([]byte(" "), again...)
			}
			code, out := post(again)
			if code != http.StatusAccepted {
				t.Fatalf("accepted %q but not its re-encoding %q", a, again)
			}
			sameJob(outA, out, a, again)
		}
		if codeB, outB := post(b); codeA == http.StatusAccepted && codeB == http.StatusAccepted && !bytes.Equal(a, b) {
			sameJob(outA, outB, a, b)
		}
	})
}
