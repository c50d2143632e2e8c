//! The output oracle: every served body must equal, byte for byte, what
//! in-process `ServiceSnapshot::answer` + `serialize_into` produce for the
//! same question. Only the `model_epoch` digits may differ, because each
//! reload serves the same bundle at the next epoch.

use std::time::Instant;

use kbqa_core::eval::matches_gold;
use kbqa_core::service::{QaRequest, QaResponse, ServiceSnapshot};

use crate::inputs::PoolQuestion;

const EPOCH_FIELD: &[u8] = b"\"model_epoch\":";

/// The expected body of one question, split around the epoch digits.
pub struct Expected {
    prefix: Vec<u8>,
    suffix: Vec<u8>,
}

impl Expected {
    fn of(response: &QaResponse) -> Self {
        let mut bytes = Vec::with_capacity(512);
        response.serialize_into(&mut bytes);
        let at = bytes
            .windows(EPOCH_FIELD.len())
            .rposition(|w| w == EPOCH_FIELD)
            .expect("every response carries model_epoch")
            + EPOCH_FIELD.len();
        let digits = bytes[at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        Self {
            suffix: bytes[at + digits..].to_vec(),
            prefix: bytes[..at].to_vec(),
        }
    }

    /// Does `body` equal the expected bytes, up to the epoch digits?
    pub fn matches(&self, body: &[u8]) -> bool {
        let fixed = self.prefix.len() + self.suffix.len();
        body.len() > fixed
            && body.starts_with(&self.prefix)
            && body.ends_with(&self.suffix)
            && body[self.prefix.len()..body.len() - self.suffix.len()]
                .iter()
                .all(u8::is_ascii_digit)
    }
}

/// How the paper's Sec 7.3 accounting grades one question's answer.
#[derive(Clone, Copy)]
struct Grade {
    answered: bool,
    right: bool,
    is_bfq: bool,
}

/// Expected bodies and grades for every pool question.
pub struct Oracle {
    expected: Vec<Expected>,
    grades: Vec<Grade>,
}

impl Oracle {
    /// Answer every pool question in process.
    pub fn build(snapshot: &ServiceSnapshot, pool: &[PoolQuestion]) -> Self {
        let mut expected = Vec::with_capacity(pool.len());
        let mut grades = Vec::with_capacity(pool.len());
        for q in pool {
            let response = snapshot.answer(&QaRequest::new(q.question.as_str()));
            expected.push(Expected::of(&response));
            grades.push(Grade {
                answered: response.answered(),
                right: response.top().is_some_and(|top| matches_gold(top, &q.gold)),
                is_bfq: q.is_bfq,
            });
        }
        Self { expected, grades }
    }

    /// The expected body of pool question `i`.
    pub fn expected(&self, i: u32) -> &Expected {
        &self.expected[i as usize]
    }

    /// QALD precision (`#ri/#pro`) and BFQ recall (`#ri/#BFQ`) over the
    /// pool questions flagged in `served`.
    pub fn quality(&self, served: &[bool]) -> (f64, f64) {
        let (mut processed, mut right, mut bfq) = (0usize, 0usize, 0usize);
        for (grade, _) in self.grades.iter().zip(served).filter(|(_, &s)| s) {
            processed += usize::from(grade.answered);
            right += usize::from(grade.right);
            bfq += usize::from(grade.is_bfq);
        }
        let ratio = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        (ratio(right, processed), ratio(right, bfq))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    Prefix,
    Digits,
    Suffix,
    Separator,
    Close,
    Done,
    Failed,
}

/// Checks a streamed `/batch` body incrementally against
/// `[expected_0,expected_1,…]` and records when each answer completed.
pub struct BatchMatcher<'a> {
    oracle: &'a Oracle,
    items: &'a [u32],
    phase: Phase,
    item: usize,
    pos: usize,
    digits: usize,
    /// Arrival instant of each completed answer, in request order.
    pub completed_at: Vec<Instant>,
}

impl<'a> BatchMatcher<'a> {
    /// A matcher for a batch of pool questions `items` (not empty).
    pub fn new(oracle: &'a Oracle, items: &'a [u32]) -> Self {
        Self {
            oracle,
            items,
            phase: Phase::Open,
            item: 0,
            pos: 0,
            digits: 0,
            completed_at: Vec::with_capacity(items.len()),
        }
    }

    /// Consume body bytes that arrived at `at`.
    pub fn feed(&mut self, mut bytes: &[u8], at: Instant) {
        while !bytes.is_empty() {
            match self.phase {
                Phase::Open | Phase::Separator | Phase::Close => {
                    let want = match self.phase {
                        Phase::Open => b'[',
                        Phase::Separator => b',',
                        _ => b']',
                    };
                    if bytes[0] != want {
                        self.phase = Phase::Failed;
                        return;
                    }
                    bytes = &bytes[1..];
                    self.phase = if self.phase == Phase::Close {
                        Phase::Done
                    } else {
                        Phase::Prefix
                    };
                    self.pos = 0;
                }
                Phase::Prefix | Phase::Suffix => {
                    let expected = self.oracle.expected(self.items[self.item]);
                    let part = if self.phase == Phase::Prefix {
                        &expected.prefix
                    } else {
                        &expected.suffix
                    };
                    let take = (part.len() - self.pos).min(bytes.len());
                    if bytes[..take] != part[self.pos..self.pos + take] {
                        self.phase = Phase::Failed;
                        return;
                    }
                    bytes = &bytes[take..];
                    self.pos += take;
                    if self.pos == part.len() {
                        self.pos = 0;
                        if self.phase == Phase::Prefix {
                            self.phase = Phase::Digits;
                            self.digits = 0;
                        } else {
                            self.completed_at.push(at);
                            self.item += 1;
                            self.phase = if self.item == self.items.len() {
                                Phase::Close
                            } else {
                                Phase::Separator
                            };
                        }
                    }
                }
                Phase::Digits => {
                    let n = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
                    self.digits += n;
                    bytes = &bytes[n..];
                    if !bytes.is_empty() {
                        if self.digits == 0 {
                            self.phase = Phase::Failed;
                            return;
                        }
                        self.phase = Phase::Suffix;
                    }
                }
                Phase::Done | Phase::Failed => {
                    self.phase = Phase::Failed;
                    return;
                }
            }
        }
    }

    /// Did the whole body match?
    pub fn matched(&self) -> bool {
        self.phase == Phase::Done
    }
}
