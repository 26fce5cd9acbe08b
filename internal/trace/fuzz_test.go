package trace

import (
	"bytes"
	"testing"
)

// FuzzDecodeJob feeds arbitrary bytes to the POST /jobs body decoder: it
// must never panic, and any body it accepts must re-encode to a form
// that decodes again to the same encoding (no silent reinterpretation
// between the HTTP body, the journal and a resumed daemon).
func FuzzDecodeJob(f *testing.F) {
	spec := DefaultSpec(3, 1)
	spec.TaskScale = 0.02
	w, err := Generate(spec)
	if err != nil {
		f.Fatal(err)
	}
	for _, j := range w.Jobs {
		b, err := EncodeJob(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte(`{"id":1,"class":"small","tasks":[{"id":0,"parents":[1]},{"id":1,"parents":[0]}]}`))
	f.Add([]byte(`{"id":1,"class":"small","tasks":[{"id":0,"parents":[0]}]}`))
	f.Add([]byte(`{"id":1,"class":"small","tasks":[{"id":1}]}`))
	f.Add([]byte(`{"id":1,"class":"huge","tasks":[]}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		j, err := DecodeJob(b)
		if err != nil {
			return
		}
		enc, err := EncodeJob(j)
		if err != nil {
			t.Fatalf("accepted job does not encode: %v", err)
		}
		back, err := DecodeJob(enc)
		if err != nil {
			t.Fatalf("re-encoded job rejected: %v\n%s", err, enc)
		}
		again, err := EncodeJob(back)
		if err != nil {
			t.Fatalf("round-tripped job does not encode: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("encoding not stable:\n%s\n%s", enc, again)
		}
	})
}
