package tree

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pclouds/internal/durable"
	"pclouds/internal/record"
)

// Model persistence: a saved model is a self-describing file carrying the
// schema (JSON header, human-inspectable) followed by the binary tree blob:
//
//	magic   u32  0x70434d31 ("pCM1")
//	hdrLen  u32
//	header  hdrLen bytes of JSON (schemaHeader)
//	tree    remaining bytes (Encode format)
//	footer  8 bytes: "pCMF" + CRC-32C(everything above), LE
//
// The footer (added by the data-plane integrity work) lets loaders reject
// *any* bit flip, not just flips that happen to break decoding; files
// written before it exist without a footer and still load.
const modelMagic uint32 = 0x70434d31

// ModelMagic is modelMagic for scrubbers: the little-endian u32 that
// begins every serialised model file.
const ModelMagic = modelMagic

// footerMagic tags the 8-byte checksum footer.
const footerMagic = "pCMF"

// FooterMagic is footerMagic for scrubbers: the 4 bytes that open the
// footer AppendChecksum ends a model or partial-tree file with.
const FooterMagic = footerMagic

// AppendChecksum appends the integrity footer ("pCMF" + CRC-32C of body)
// to body and returns it. Paired with StripChecksum.
func AppendChecksum(body []byte) []byte {
	var f [8]byte
	copy(f[:], footerMagic)
	binary.LittleEndian.PutUint32(f[4:], durable.Checksum(body))
	return append(body, f[:]...)
}

// StripChecksum validates and removes the integrity footer, if present.
// Bodies without a footer pass through unchanged with hadFooter=false
// (pre-integrity files); a footer whose checksum does not match the body
// is an error naming the expected and actual CRC.
func StripChecksum(body []byte) (payload []byte, hadFooter bool, err error) {
	if len(body) < 8 || string(body[len(body)-8:len(body)-4]) != footerMagic {
		return body, false, nil
	}
	payload = body[:len(body)-8]
	want := binary.LittleEndian.Uint32(body[len(body)-4:])
	if got := durable.Checksum(payload); got != want {
		return nil, true, fmt.Errorf("tree: model checksum mismatch (want %08x got %08x)", want, got)
	}
	return payload, true, nil
}

// schemaHeader is the JSON-serialisable form of a schema.
type schemaHeader struct {
	Classes int         `json:"classes"`
	Attrs   []attrEntry `json:"attrs"`
}

type attrEntry struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"` // "numeric" or "categorical"
	Cardinality int    `json:"cardinality,omitempty"`
}

func headerOf(s *record.Schema) schemaHeader {
	h := schemaHeader{Classes: s.NumClasses}
	for _, a := range s.Attrs {
		h.Attrs = append(h.Attrs, attrEntry{Name: a.Name, Kind: a.Kind.String(), Cardinality: a.Cardinality})
	}
	return h
}

func (h schemaHeader) schema() (*record.Schema, error) {
	attrs := make([]record.Attribute, 0, len(h.Attrs))
	for _, a := range h.Attrs {
		var kind record.Kind
		switch a.Kind {
		case "numeric":
			kind = record.Numeric
		case "categorical":
			kind = record.Categorical
		default:
			return nil, fmt.Errorf("tree: unknown attribute kind %q in model", a.Kind)
		}
		attrs = append(attrs, record.Attribute{Name: a.Name, Kind: kind, Cardinality: a.Cardinality})
	}
	return record.NewSchema(attrs, h.Classes)
}

// Write serialises the model (schema + tree + checksum footer) to w.
func Write(w io.Writer, t *Tree) error {
	hdr, err := json.Marshal(headerOf(t.Schema))
	if err != nil {
		return fmt.Errorf("tree: encoding schema: %w", err)
	}
	blob := Encode(t)
	body := make([]byte, 0, 8+len(hdr)+len(blob)+8)
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b8[0:], modelMagic)
	binary.LittleEndian.PutUint32(b8[4:], uint32(len(hdr)))
	body = append(body, b8[:]...)
	body = append(body, hdr...)
	body = append(body, blob...)
	if _, err := w.Write(AppendChecksum(body)); err != nil {
		return err
	}
	return nil
}

// Read parses a model written by Write, verifying the checksum footer when
// one is present (files written before the footer existed still load).
func Read(r io.Reader) (*Tree, error) {
	all, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	body, _, err := StripChecksum(all)
	if err != nil {
		return nil, err
	}
	if len(body) < 8 {
		return nil, fmt.Errorf("tree: model truncated: %d bytes", len(body))
	}
	if m := binary.LittleEndian.Uint32(body[0:]); m != modelMagic {
		return nil, fmt.Errorf("tree: bad model magic %#x", m)
	}
	hdrLen := binary.LittleEndian.Uint32(body[4:])
	if hdrLen > 1<<20 || int64(hdrLen) > int64(len(body)-8) {
		return nil, fmt.Errorf("tree: implausible model header length %d", hdrLen)
	}
	var h schemaHeader
	if err := json.Unmarshal(body[8:8+hdrLen], &h); err != nil {
		return nil, fmt.Errorf("tree: decoding model schema: %w", err)
	}
	schema, err := h.schema()
	if err != nil {
		return nil, err
	}
	return Decode(schema, body[8+hdrLen:])
}

// SaveFile writes the model to path atomically (durable.WriteFile): a
// concurrent reader such as the serving registry's hot-reload poller sees
// either the old complete model or the new one, never a torn file.
func SaveFile(t *Tree, path string) error {
	var buf bytes.Buffer
	if err := Write(&buf, t); err != nil {
		return err
	}
	return durable.WriteFile(path, buf.Bytes())
}

// LoadFile reads a model written by SaveFile.
func LoadFile(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
