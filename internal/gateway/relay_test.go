package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
)

// sinkWriter is a ResponseWriter without ReadFrom, like the status
// recorder the gateway's routes write through; it counts body bytes.
type sinkWriter struct {
	h http.Header
	n int
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(int)     {}
func (w *sinkWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// replayBody is a backend response body that can be read again after
// rewind. Like a client response body it has no WriteTo.
type replayBody struct {
	r       bytes.Reader
	payload []byte
}

func (b *replayBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *replayBody) Close() error               { return nil }
func (b *replayBody) rewind()                    { b.r.Reset(b.payload) }

// relayFixture returns a backend response with a poll-sized JSON body and a
// writer to relay it into.
func relayFixture() (*http.Response, *replayBody, *sinkWriter) {
	body := &replayBody{payload: bytes.Repeat([]byte(`{"ticket":"t-000042","state":"done"}`), 8)}
	resp := &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       body,
	}
	return resp, body, &sinkWriter{h: http.Header{}}
}

// Relaying a backend response must not allocate a copy buffer per
// response: copyResponse relays through a pooled one. The bound is half a
// buffer per relay, not zero, because under the race detector sync.Pool
// drops a quarter of what it is given.
func TestCopyResponseReusesBuffer(t *testing.T) {
	resp, body, w := relayFixture()
	relay := func() {
		body.rewind()
		copyResponse(w, resp)
	}
	relay() // fill the pool
	const relays = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < relays; i++ {
		relay()
	}
	runtime.ReadMemStats(&after)
	if w.n != (relays+1)*len(body.payload) {
		t.Fatalf("relayed %d body bytes, want %d", w.n, (relays+1)*len(body.payload))
	}
	if perRelay := (after.TotalAlloc - before.TotalAlloc) / relays; perRelay >= 16<<10 {
		t.Fatalf("a relay allocates %d bytes: the copy buffer is not reused", perRelay)
	}
}

// BenchmarkRelay prices relaying one poll-sized backend response (run with
// -benchmem: B/op is what the relay allocates).
func BenchmarkRelay(b *testing.B) {
	resp, body, w := relayFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body.rewind()
		copyResponse(w, resp)
	}
}

// The gateway relays the decoded /execute and /undeploy bodies as typed
// structs; the backend must receive exactly the bytes the map encodings
// it relayed before produced.
func TestTypedRelayBodiesMatchMapEncoding(t *testing.T) {
	apps := []string{"", "lenet-S", "alice.nin-M", `quote"and\slash`, "<html>&amp;", "ünïcødé", "tab\tnew\nline"}
	for _, app := range apps {
		for _, tokens := range []uint64{0, 1, 2, 10000, 1 << 32, ^uint64(0)} {
			got, err := json.Marshal(&executeRequest{App: app, Tokens: tokens})
			if err != nil {
				t.Fatal(err)
			}
			want, _ := json.Marshal(map[string]interface{}{"app": app, "tokens": tokens})
			if !bytes.Equal(got, want) {
				t.Fatalf("execute body %s, map encoding %s", got, want)
			}
		}
		got, err := json.Marshal(&undeployRequest{App: app})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(map[string]string{"app": app})
		if !bytes.Equal(got, want) {
			t.Fatalf("undeploy body %s, map encoding %s", got, want)
		}
	}
}
