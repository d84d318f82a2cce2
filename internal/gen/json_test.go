package gen

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	orig, err := Ami33Like()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || len(back.Nets) != len(orig.Nets) {
		t.Fatalf("round trip lost structure: %q %d nets", back.Name, len(back.Nets))
	}
	if len(back.Layout.Cells()) != len(orig.Layout.Cells()) {
		t.Fatal("cell count changed")
	}
	for i := range orig.Nets {
		a, b := orig.Nets[i], back.Nets[i]
		if a.Name != b.Name || a.Class != b.Class || len(a.Pins) != len(b.Pins) {
			t.Fatalf("net %d differs: %+v vs %+v", i, a.Name, b.Name)
		}
		for k := range a.Pins {
			if a.Pins[k].DX != b.Pins[k].DX || a.Pins[k].Side != b.Pins[k].Side ||
				a.Pins[k].Cell().Name != b.Pins[k].Cell().Name {
				t.Fatalf("net %d pin %d differs", i, k)
			}
		}
	}
}

// badDocuments are instance documents ReadJSON must refuse.
var badDocuments = []struct{ label, doc string }{
	{"garbage", "{"},
	{"unknownClass", `{"name":"x","rows":[{"gap":10,"cells":[{"name":"a","w":50,"h":50}]},{"gap":10,"cells":[{"name":"b","w":50,"h":50}]}],"nets":[{"name":"n","class":"bogus","pins":[]}]}`},
	{"unknownCell", `{"name":"x","rows":[{"gap":10,"cells":[{"name":"a","w":50,"h":50}]},{"gap":10,"cells":[{"name":"b","w":50,"h":50}]}],"nets":[{"name":"n","class":"signal","pins":[{"cell":"zz","name":"p","dx":10,"side":"top"}]}]}`},
	{"badSide", `{"name":"x","rows":[{"gap":10,"cells":[{"name":"a","w":50,"h":50}]},{"gap":10,"cells":[{"name":"b","w":50,"h":50}]}],"nets":[{"name":"n","class":"signal","pins":[{"cell":"a","name":"p","dx":10,"side":"left"}]}]}`},
	{"dupCell", `{"name":"x","rows":[{"gap":10,"cells":[{"name":"a","w":50,"h":50},{"name":"a","w":50,"h":50}]},{"gap":10,"cells":[{"name":"b","w":50,"h":50}]}],"nets":[]}`},
}

func TestReadJSONErrors(t *testing.T) {
	for _, c := range badDocuments {
		if _, err := ReadJSON(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s accepted", c.label)
		}
	}
}

// TestCanonicalJSONIsCompactWriteJSON pins CanonicalJSON to the bytes
// the serve journal has always stored: json.Compact of WriteJSON's
// indented document without its trailing newline.
func TestCanonicalJSONIsCompactWriteJSON(t *testing.T) {
	for _, mk := range []func() (*Instance, error){Ami33Like, XeroxLike, Ex3Like} {
		inst, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		var indented, compact bytes.Buffer
		if err := inst.WriteJSON(&indented); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&compact, bytes.TrimSuffix(indented.Bytes(), []byte("\n"))); err != nil {
			t.Fatal(err)
		}
		canon, err := inst.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, compact.Bytes()) {
			t.Errorf("%s: CanonicalJSON is %d bytes, compacted WriteJSON %d", inst.Name, len(canon), compact.Len())
		}
	}
}

// FuzzReadJSON feeds arbitrary documents to ReadJSON, which must
// refuse or accept them without panicking. An accepted instance's
// canonical bytes must decode again and re-encode to themselves: a run
// requeued from the journal re-executes exactly those bytes.
func FuzzReadJSON(f *testing.F) {
	for _, c := range badDocuments {
		f.Add([]byte(c.doc))
	}
	f.Add([]byte(`{"name":"two","rows":[{"gap":10,"cells":[{"name":"a","w":50,"h":40}]},` +
		`{"gap":12,"cells":[{"name":"b","w":60,"h":50,"sensitive":true}]}],` +
		`"nets":[{"name":"n","class":"critical","criticality":2,"pins":[` +
		`{"cell":"a","name":"p","dx":10,"side":"top"},{"cell":"b","name":"q","dx":20,"side":"bottom"}]}]}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		inst, err := ReadJSON(bytes.NewReader(doc))
		if err != nil {
			return
		}
		canon, err := inst.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted instance does not encode: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical bytes refused: %v\n%s", err, canon)
		}
		again, err := back.CanonicalJSON()
		if err != nil {
			t.Fatalf("re-read instance does not encode: %v", err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("canonical bytes changed on a round trip:\n%s\n%s", canon, again)
		}
	})
}
