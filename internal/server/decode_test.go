package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sprofile"
)

// jsonEvent is the encoding/json form of one event, the reference the
// hand-written decoder is held to.
type jsonEvent struct {
	Object string `json:"object"`
	Action string `json:"action"`
}

// fuzzMaxBatch is the array bound the differential fuzz decodes under.
const fuzzMaxBatch = 8

func TestDecodeEventStrict(t *testing.T) {
	for _, tc := range []struct {
		body   string
		object string
		action sprofile.Action
	}{
		{`{"object":"u0012345","action":"add"}`, "u0012345", sprofile.ActionAdd},
		{` {"action" : "-1" , "object":"x"} ` + "\r\n\t", "x", sprofile.ActionRemove},
		{`{"object":"a\"b\\c\/d\b\f\n\r\t","action":"+"}`, "a\"b\\c/d\b\f\n\r\t", sprofile.ActionAdd},
		{`{"object":"é<😀","action":"remove"}`, "é<😀", sprofile.ActionRemove},
		{`{"object":"héllo 世界","action":"1"}`, "héllo 世界", sprofile.ActionAdd},
	} {
		var d eventDecoder
		ev, invalid, err := d.one([]byte(tc.body))
		if err != nil || invalid != nil || ev.Key != tc.object || ev.Action != tc.action {
			t.Errorf("one(%q) = %+v, %v, %v; want {%q %v}", tc.body, ev, invalid, err, tc.object, tc.action)
		}
	}
	for _, body := range []string{
		``,
		`[]`,
		`"object"`,
		`{"object":"a","action":"add"`,
		`{"object":"a","action":"add",}`,
		`{"object":"a" "action":"add"}`,
		`{"object":"a","action":"add"}}`,
		`{"object":"a","action":"add"},`,
		`{"object":"a","action":"add"}` + "\v",
		`{"object":"a","action":"add","extra":"x"}`,
		`{"object":"a","action":"add","object":"a"}`,
		`{"OBJECT":"a","action":"add"}`,
		`{"object":"a","Action":"add"}`,
		`{"object":1,"action":"add"}`,
		`{"object":"a","action":true}`,
		`{"object":["a"],"action":"add"}`,
		`{"object":{"k":"a"},"action":"add"}`,
		`{"object":null,"action":"add"}`,
		"{\"object\":\"a\x01\",\"action\":\"add\"}",
		"{\"object\":\"a\tb\",\"action\":\"add\"}",
		"{\"object\":\"\xff\",\"action\":\"add\"}",
		"{\"object\":\"a\\\xff\",\"action\":\"add\"}",
		"{\"object\":\"\xed\xa0\x80\",\"action\":\"add\"}",
		`{"object":"\ud800","action":"add"}`,
		`{"object":"\udc00\ud800","action":"add"}`,
		`{"object":"\ud800A","action":"add"}`,
		`{"object":"\u12","action":"add"}`,
		`{"object":"\x41","action":"add"}`,
		`{"object":"a\`,
		`{"object":"a","action":"add"}x`,
	} {
		var d eventDecoder
		if ev, invalid, err := d.one([]byte(body)); err == nil {
			t.Errorf("one(%q) accepted: %+v, invalid %v", body, ev, invalid)
		}
	}
}

func TestDecodeEventArray(t *testing.T) {
	var d eventDecoder
	events, invalid, err := d.array([]byte(`[ {"object":"a","action":"add"}, {"object":"","action":"add"}, {"object":"b","action":"x"} ]`), 3, nil)
	if err != nil || len(events) != 1 || events[0].Key != "a" || invalid == nil || !strings.Contains(invalid.Error(), "empty object") {
		t.Fatalf("array with an invalid element = %+v, %v, %v", events, invalid, err)
	}
	// A syntax error after the invalid element still fails the whole array.
	if _, _, err := d.array([]byte(`[{"object":"","action":"add"},{"object":"b"`), 3, nil); err == nil {
		t.Fatalf("truncated array accepted")
	}
	// The bound stops the decode at element maxBatch+1, before its syntax.
	if _, _, err := d.array([]byte(`[{"object":"a","action":"add"},{"object":"b","action":"add"},nonsense`), 2, nil); err == nil || !strings.Contains(err.Error(), "limit of 2 events") {
		t.Fatalf("over-long array = %v, want the batch limit", err)
	}
}

// FuzzDecodeEvent holds the event decoder to encoding/json with
// DisallowUnknownFields: on every input it neither panics nor accepts what
// encoding/json refuses, and what it accepts decodes to the same events,
// with the same per-event refusal checkObject and parseAction give the
// reference. Each accepted single event is then rebuilt into the forms the
// decoder must reject.
func FuzzDecodeEvent(f *testing.F) {
	for _, seed := range []string{
		`{"object":"u0001234","action":"add"}`,
		`{"object":"u0099999","action":"remove"}`,
		`{"object":"m0-0000001","action":"add"}`,
		`[{"object":"u0000001","action":"add"},{"object":"u0000002","action":"remove"}]`,
		`{"object":"solo","action":"add"}`,
		`{"object":"solo","action":"add","extra":1}`,
		`{"object":"solo"`,
		`[{"object":"a","action":"add"},{"object":"b","action":"add"},{"object":"c","action":"nope"}]`,
		`[{"object":"","action":"add"}]`,
		`{"object":"a","wat":1}`,
		`{nope}`,
		`not json`,
		`[]`,
		` {"action":"-","object":"café 😀"} `,
		`{"object":"a\\b\"c","action":"+"}`,
	} {
		f.Add([]byte(seed))
	}
	for _, tc := range silentDropCases {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d eventDecoder
		events, invalid, err := decodeEvents(&d, data, fuzzMaxBatch, nil)
		if err != nil {
			return
		}
		var ref []jsonEvent
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if i := skipSpace(data, 0); i < len(data) && data[i] == '[' {
			err = dec.Decode(&ref)
		} else {
			ref = make([]jsonEvent, 1)
			err = dec.Decode(&ref[0])
		}
		if err != nil {
			t.Fatalf("decoder accepted %q, encoding/json refuses it: %v", data, err)
		}
		if len(ref) > fuzzMaxBatch {
			t.Fatalf("decoder accepted %d events over the limit %d", len(ref), fuzzMaxBatch)
		}
		var want []sprofile.KeyedTuple[string]
		var wantInvalid error
		for _, e := range ref {
			if wantInvalid = checkObject(e.Object); wantInvalid != nil {
				break
			}
			action, err := parseAction([]byte(e.Action))
			if wantInvalid = err; err != nil {
				break
			}
			want = append(want, sprofile.KeyedTuple[string]{Key: e.Object, Action: action})
		}
		if (invalid == nil) != (wantInvalid == nil) || (invalid != nil && invalid.Error() != wantInvalid.Error()) {
			t.Fatalf("%q: decoder refuses with %v, reference with %v", data, invalid, wantInvalid)
		}
		if len(events) != len(want) {
			t.Fatalf("%q: decoded %d events, reference %d", data, len(events), len(want))
		}
		for i := range want {
			if events[i] != want[i] {
				t.Fatalf("%q: event %d decoded as %+v, reference %+v", data, i, events[i], want[i])
			}
		}
		if len(ref) == 1 && data[skipSpace(data, 0)] != '[' {
			checkRejectList(t, ref[0])
		}
	})
}

// checkRejectList rebuilds the accepted event e into each form the decoder
// must refuse as a syntax error.
func checkRejectList(t *testing.T, e jsonEvent) {
	t.Helper()
	obj, _ := json.Marshal(e.Object)
	act, _ := json.Marshal(e.Action)
	o, a := string(obj), string(act)
	good := `{"object":` + o + `,"action":` + a + `}`
	for _, body := range []string{
		good + good,
		good + ` x`,
		good + `,`,
		`{"object":` + o + `,"object":` + o + `,"action":` + a + `}`,
		`{"object":` + o + `,"action":` + a + `,"action":` + a + `}`,
		`{"Object":` + o + `,"action":` + a + `}`,
		`{"object":` + o + `,"ACTION":` + a + `}`,
		`{"object":` + o + `,"action":` + a + `,"extra":` + a + `}`,
		`{"object":` + o + `,"action":1}`,
		`{"object":null,"action":` + a + `}`,
		`{"object":` + o + `,"action":` + a + `,"action":null}`,
		`{"object":[` + o + `],"action":` + a + `}`,
		`{"object":` + o[:len(o)-1] + "\x01" + `","action":` + a + `}`,
		`{"object":` + o[:len(o)-1] + "\xfe" + `","action":` + a + `}`,
	} {
		var d eventDecoder
		if ev, _, err := d.one([]byte(body)); err == nil {
			t.Fatalf("decoder accepted %q as %+v", body, ev)
		}
	}
}
