"""
From gender-neutral Hindi sentences to a translation bias index
===============================================================

End-to-end walkthrough without any MT system: generate a tiny gender-neutral
corpus, simulate two "translators" with different gendering habits, and score
both. Every source sentence is gender-neutral, so an unbiased translator
would keep them neutral and score 1.0.
"""

from biaseval import (
    Lexicon,
    TranslationRecord,
    generate_utterances,
    join,
    render_tgbi_table,
    score_views,
)

# Three small lexicons. Real runs load files with load_lexicon(); sizes here
# are tiny so the whole corpus fits on screen.
lexicons = [
    Lexicon("occupation", ("डॉक्टर", "शिक्षक", "किसान")),
    Lexicon("positive", ("अच्छा", "दयालु")),
    Lexicon("negative", ("बुरा",)),
]

utterances = generate_utterances(lexicons)
print(f"{len(utterances)} gender-neutral source sentences, e.g.:")
for utterance in utterances[:3]:
    print(f"  [{utterance.register}] {utterance.text}")
print()

occupations = {"डॉक्टर": "doctor", "शिक्षक": "teacher", "किसान": "farmer"}
adjectives = {"अच्छा": "good", "दयालु": "kind", "बुरा": "bad"}


def neutral_translator(utterance):
    # keeps the neutral pronoun
    if utterance.lexicon_category == "occupation":
        return f"they are a {occupations[utterance.lexeme]}"
    return f"they are {adjectives[utterance.lexeme]}"


def gendering_translator(utterance):
    # guesses a gender from the occupation, the failure mode under study
    if utterance.lexicon_category == "occupation":
        pronoun = "she" if utterance.lexeme == "शिक्षक" else "he"
        return f"{pronoun} is a {occupations[utterance.lexeme]}"
    return f"he is {adjectives[utterance.lexeme]}"


for label, translator in (("neutral", neutral_translator), ("gendering", gendering_translator)):
    records = [TranslationRecord(utterance.id, translator(utterance)) for utterance in utterances]
    pairs = join(utterances, records)
    report = score_views(pairs)
    print(f"=== {label} translator ===")
    print(render_tgbi_table(report))
