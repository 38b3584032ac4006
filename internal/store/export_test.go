package store

// The canary test runs in package store_test, because it evaluates its
// requests through the engine, which imports this package.
const EntryVersion = entryVersion

var AnswerCanaries = answerCanaries[:]
