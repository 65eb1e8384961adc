package formext

// Pool is an alias of Extractor, kept so existing callers compile. An
// Extractor is safe for concurrent use: share one instead of pooling.
//
// Deprecated: use Extractor.
type Pool = Extractor

// NewPool is New under its former name.
//
// Deprecated: use New.
func NewPool(opts ...Options) (*Pool, error) { return New(opts...) }
